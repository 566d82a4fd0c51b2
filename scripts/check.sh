#!/bin/sh
# Pre-commit gate: docs-drift check (every cmd flag documented, no dead
# markdown links), gofmt (any file it would reformat fails the gate), vet,
# build, race-checked tests for the packages with a
# documented concurrency contract (internal/stats single-owner counters,
# the internal/obs layer that snapshots them, the internal/runner worker
# pool, and the internal/farm coordinator), then the full suite.
#
# The staleness gate then regenerates the checked-in results with the
# commands DESIGN.md names for them ("Checked-in result artifacts") and
# fails on any difference: results_full.txt is `experiments -all -ops
# 15000` and results_ablations.txt is `experiments -ablations -ops 15000
# -bench pr,mcf,lbm,cc,bwaves`, both run here with the default of one
# simulation per CPU (parallelism never changes the output). A change that
# moves the numbers on purpose regenerates the files with the same
# commands.
#
# The DRAM scheduler's differential fuzz target then runs for 30 s: it
# checks the memoized FR-FCFS scheduler against the memo-free reference in
# internal/dram/reference_test.go on fuzzed traffic. The core's fuzz target
# then runs for 15 s: it checks the closed-form Advance and the horizon
# queries QuietFor, Settled and RetiringFor against Cycle, step by step, in
# internal/cpu/advance_test.go. The simulation loop's fuzz target then runs
# for 15 s: it checks the lazy-core loop, fast-forward included, against a
# reference loop that steps every core through every cycle, on fuzzed
# configs, in internal/sim/loop_test.go; both runs of each config also
# pass every DRAM command through dram.Checker's protocol monitor, and a
# run with a fault campaign must account for every injected fault
# (injected = corrected + DUE + SDC + latent). The farm's request fuzz
# target then runs for 10 s: it sends fuzzed bodies to the coordinator's POST
# routes and checks that none panics, that every error answer is a typed
# envelope with a known code, and that the job census adds up, in
# internal/farm/handler_test.go.
#
# Every fuzz step bounds minimization to ten executions per input
# (-fuzzminimizetime=10x). The default is up to 60 s per input, and the
# fuzzer minimizes every input that adds coverage, not only failing ones:
# the simulation loop's step spent most of its 15 s minimizing a few
# inputs (5 to 10 s each) and kept one or two new inputs a run, against
# 250 to 290 with the bound.
#
# The farm's long-poll, corpus-writer and pipelining tests (sweep-status
# and lease long-polls, RunSweep taking results from status rows,
# Shutdown unparking, Close draining the corpus writer, replay of a result
# acknowledged but never stored, the worker's result push pipelined with
# its next lease, Submit reading the corpus outside the coordinator's lock)
# then run ten more times under -race: they park and wake goroutines, so a
# leak or a lost wake-up shows up as a flake there.
#
# The chaos suite (injected panics, hangs, mid-sweep cancellation) runs
# last with -count=3 to shake out flakes; it is non-gating so a flaky
# chaos repetition reports loudly without blocking a commit.
set -eux

cd "$(dirname "$0")/.."

sh scripts/docscheck.sh
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
go build ./...
go test -race ./internal/stats/... ./internal/obs/... ./internal/runner/... ./internal/farm/...
go test ./...
go run ./cmd/experiments -all -ops 15000 | diff -u results_full.txt -
go run ./cmd/experiments -ablations -ops 15000 -bench pr,mcf,lbm,cc,bwaves | diff -u results_ablations.txt -
go test -run '^$' -fuzz '^FuzzSchedulerMatchesReference$' -fuzztime 30s -fuzzminimizetime=10x ./internal/dram/
go test -run '^$' -fuzz '^FuzzAdvanceMatchesCycle$' -fuzztime 15s -fuzzminimizetime=10x ./internal/cpu/
go test -run '^$' -fuzz '^FuzzLoopMatchesReference$' -fuzztime 15s -fuzzminimizetime=10x ./internal/sim/
go test -run '^$' -fuzz '^FuzzHandlerRequests$' -fuzztime 10s -fuzzminimizetime=10x ./internal/farm/
go test -race -count=10 -run 'TestSweepLongPoll|TestRunSweep|TestChaosShutdownDrainsParked|TestFarmLongPollWake|TestCorpusWriterDrainsOnClose|TestReplayRequeuesDoneWithoutEntry|TestWorkerPipelinesPush|TestSubmitRacesLeaseAndSweep' ./internal/farm/
go test -count=3 -run 'TestChaos' ./internal/runner/... ./internal/farm/... || echo "chaos suite: FAILED (non-gating)" >&2
