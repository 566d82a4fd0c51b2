# See README "Install"; `make check` is the pre-commit gate.

.PHONY: check build test race bench bench-smoke

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

# The packages scripts/check.sh race-checks: those with a documented
# concurrency contract.
race:
	go test -race ./internal/stats/... ./internal/obs/... ./internal/runner/... ./internal/farm/...

# Hot-loop microbenchmarks (engine, DRAM, integrity stores, whole simulation
# loop) and the reduced Figure 8 wall-clock benchmark. End-to-end sweep
# numbers come from the repository benchmark (benchmark/README.md).
bench:
	go test -run '^$$' -bench . -benchmem ./internal/core ./internal/dram ./internal/integrity ./internal/sim .

# One-iteration smoke run of the same suite (CI, non-gating). It includes
# BenchmarkObsOverheadGuard, which fails if disabled obs hooks change cycles
# or cost more than 5%.
bench-smoke:
	go test -run '^$$' -bench . -benchmem -benchtime=1x ./internal/core ./internal/dram ./internal/integrity ./internal/sim .
