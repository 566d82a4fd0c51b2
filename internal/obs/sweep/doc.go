// Package sweep is the sweep-scoped half of the observability layer: where
// package obs instruments one simulation, sweep instruments the fleet of
// jobs around it. It provides a job-lifecycle event model (queued → started
// → attempt N → cache hit/miss → panic/timeout/retry → terminal outcome), a
// Collector the runner calls at each transition, and an HTTP status server
// (/progress, /metrics, /events, /debug/pprof) for watching a live sweep.
// The same events, appended as JSONL, form the sweep journal: the one
// crash record of a cached sweep, read back by the crash-tolerant
// ReadJournal and folded into sweep totals by Replay.
//
// The Collector is deliberately cheap and safe to thread everywhere: every
// recording method is nil-receiver safe (a disabled sweep pays one nil
// check per job transition, never per simulated cycle), and all state is
// guarded by one mutex that is only taken a handful of times per job —
// job-lifecycle transitions are O(jobs), not O(cycles), so contention is
// negligible next to a simulation.
//
// The same event model serves both execution topologies. In-process, the
// runner's worker goroutines drive the Collector directly. In a sweep farm
// (internal/farm), the coordinator forwards spans on behalf of its remote
// workers — a lease grant becomes a started/attempt span, a pushed result
// becomes a done span, and a lapsed lease becomes an expired span
// (EventExpired, the one lifecycle event that has no in-process analogue,
// because a worker goroutine cannot vanish without its process). Either
// way, /progress, /metrics, and /events report one aggregated fleet.
package sweep
