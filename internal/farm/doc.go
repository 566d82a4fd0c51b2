// Package farm turns the run orchestration stack into a networked service:
// a coordinator (cmd/simfarmd) that accepts sweep submissions over
// HTTP/JSON and maintains a durable pull queue, and stateless workers
// (cmd/simfarm-worker) that long-poll for leases, execute jobs through the
// ordinary runner + local .runcache, and push summaries back. The wire
// protocol lives in the api subpackage — one definition shared by
// coordinator, worker, and clients.
//
// The design reuses, rather than re-invents, the existing pieces:
//
//   - Identity is the runspec content hash everywhere. A sweep's ID is
//     runspec.SweepID over its jobs' spec hashes — the value that also
//     names the runner's sweep journals — so submission is idempotent and
//     a farm sweep and the identical in-process sweep name the same work.
//     Submit hashes each spec once, and reads the corpus for the hashes it
//     does not know yet, outside the coordinator's lock.
//     Hashes fold defaults (runspec.Spec.Normalized), so the corpus is
//     shareable across machines with different worker/core counts.
//   - The shared result corpus is a runner.Cache: the same on-disk layout
//     as a local .runcache, fed by every worker's pushed results. A
//     completion is acknowledged, then stored: the coordinator keeps the
//     summary in memory and answers at once, and its corpus writer stores
//     the entry after the answer, off the worker's path to its next
//     lease (Close drains it). A submitted job whose hash is already in
//     the corpus is satisfied without dispatch — cache hits short-circuit
//     the queue entirely.
//   - A worker pipelines each result push with its next lease: it waits
//     only until the complete request has been written to its connection,
//     then long-polls for its next job while the coordinator answers the
//     push. At most one push is in flight, and Work returns only after the
//     last one is answered.
//   - Reliability is lease-based. A worker holds each job under a TTL'd
//     lease and renews it from inside the runner's heartbeat hook; a
//     worker that dies simply stops heartbeating, its lease lapses, and
//     the job returns to the queue under the runner's retry accounting
//     (attempts are charged at lease time; panics and timeouts pushed back
//     by live workers follow the same taxonomy).
//   - Observability is forwarded spans. The coordinator drives an
//     obs/sweep Collector on behalf of its remote fleet — lease grants
//     become started/attempt spans, lapses become expired spans — so
//     /progress, /metrics, and /events aggregate the whole farm exactly
//     like a local sweep. Every state transition is also journaled to an
//     append-only farm-journal.jsonl beside the corpus (the crash-safe
//     whole-line-append idiom of the runner's sweep journal).
//   - Sweep status is served as deltas, by long-poll. Every job state
//     change takes the next value of a coordinator-wide version counter
//     and wakes every parked long-poll; a status response carries an
//     opaque cursor naming the coordinator lifetime and that counter, and
//     a request passing it back as ?since= gets only the rows changed
//     after it (counts always cover the whole sweep). With &wait_ms= such
//     a request parks, on the same wake channel as a lease request, until
//     a row of its sweep changes. A cursor from another lifetime gets the
//     full table, so Client.RunSweep — which fetches the full table once,
//     then long-polls deltas and merges them by key — rides out a
//     coordinator restart without missing a row. Done and cached rows carry
//     their summaries, so RunSweep makes no result request: each result
//     travels once, in the answer that first shows its row terminal.
//
// See DESIGN.md's "Sweep farm" chapter for the endpoint, lease, and
// state-machine reference, and examples/farm for a runnable walkthrough.
package farm
