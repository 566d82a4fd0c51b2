// Package runner schedules batches of declarative run specs over a bounded
// worker pool, with a content-addressed result cache, fault-tolerant
// execution, and aggregated error reporting. Sweeps built on it are
// resumable for free: every completed job leaves a cache entry under its
// spec hash, so re-invoking an interrupted sweep re-simulates only the
// missing hashes; a crash-safe JSONL sweep journal beside the cache records
// each job's lifecycle events, terminal state included, for post-mortems.
//
// Failure handling follows one taxonomy end to end: recovered panics and
// per-job deadline expiries are retryable (Options.Retries, deterministic
// re-runs), spec errors and watchdog trips are not, and batch cancellation
// drains — queued jobs are skipped while in-flight simulations finish and
// land in the cache. The same taxonomy is what the sweep farm
// (internal/farm) speaks over the wire, so a job failing on a remote
// worker is accounted exactly like one failing on a local goroutine; the
// farm's workers execute leased jobs through this package and keep their
// leases alive with the Options.OnHeartbeat hook.
//
// Concurrency contract: Run owns the outcome slice and Stats until it
// returns; workers write disjoint outcome entries and serialize done
// counting and OnJobDone under one mutex, while journal appends go through
// the sweep collector's own lock. Observer/AfterSim hooks run on worker goroutines, one job at a
// time per worker, and must not share mutable state across jobs unless
// they synchronize it themselves. The contract is enforced by
// `go test -race ./internal/runner/...` in scripts/check.sh.
package runner
