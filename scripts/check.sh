#!/bin/sh
# Pre-commit gate: docs-drift check (every cmd flag documented, no dead
# markdown links), vet, build, race-checked tests for the packages with a
# documented concurrency contract (internal/stats single-owner counters,
# the internal/obs layer that snapshots them, the internal/runner worker
# pool, and the internal/farm coordinator), then the full suite.
#
# The staleness gate then regenerates the checked-in results with the
# commands DESIGN.md names for them ("Checked-in result artifacts") and
# fails on any difference: results_full.txt is `experiments -all -ops
# 15000` and results_ablations.txt is `experiments -ablations -ops 15000
# -bench pr,mcf,lbm,cc,bwaves`, both run here on every CPU (parallelism
# never changes the output). A change that moves the numbers on purpose
# regenerates the files with the same commands.
#
# The DRAM scheduler's differential fuzz target then runs for 30 s: it
# checks the memoized FR-FCFS scheduler against the memo-free reference in
# internal/dram/reference_test.go on fuzzed traffic. The core's fuzz target
# then runs for 15 s: it checks the closed-form Advance and the horizon
# queries QuietFor, Settled and RetiringFor against Cycle, step by step, in
# internal/cpu/advance_test.go. The simulation loop's fuzz target then runs
# for 15 s: it checks the lazy-core loop, fast-forward included, against a
# reference loop that steps every core through every cycle, on fuzzed
# configs, in internal/sim/loop_test.go.
#
# The farm's long-poll tests (sweep-status and lease long-polls, RunSweep,
# Shutdown unparking) then run ten more times under -race: they park and
# wake goroutines, so a leak or a lost wake-up shows up as a flake there.
#
# The chaos suite (injected panics, hangs, mid-sweep cancellation) runs
# last with -count=3 to shake out flakes; it is non-gating so a flaky
# chaos repetition reports loudly without blocking a commit.
set -eux

cd "$(dirname "$0")/.."

sh scripts/docscheck.sh
go vet ./...
go build ./...
go test -race ./internal/stats/... ./internal/obs/... ./internal/runner/... ./internal/farm/...
go test ./...
ncpu=$(getconf _NPROCESSORS_ONLN)
go run ./cmd/experiments -all -ops 15000 -parallel "$ncpu" | diff -u results_full.txt -
go run ./cmd/experiments -ablations -ops 15000 -bench pr,mcf,lbm,cc,bwaves -parallel "$ncpu" | diff -u results_ablations.txt -
go test -run '^$' -fuzz '^FuzzSchedulerMatchesReference$' -fuzztime 30s ./internal/dram/
go test -run '^$' -fuzz '^FuzzAdvanceMatchesCycle$' -fuzztime 15s ./internal/cpu/
go test -run '^$' -fuzz '^FuzzLoopMatchesReference$' -fuzztime 15s ./internal/sim/
go test -race -count=10 -run 'TestSweepLongPoll|TestRunSweep|TestChaosShutdownDrainsParked|TestFarmLongPollWake' ./internal/farm/
go test -count=3 -run 'TestChaos' ./internal/runner/... ./internal/farm/... || echo "chaos suite: FAILED (non-gating)" >&2
