// Package api is the wire protocol of the sweep farm: the versioned
// request/response types, typed error envelope, and route table shared by
// the coordinator (cmd/simfarmd), the worker (cmd/simfarm-worker), and the
// clients (cmd/simfarm, cmd/experiments -farm). Coordinator, worker, and
// client all compile against this one definition, so a field added here is
// a field added everywhere — there is no second copy of the protocol to
// drift.
//
// Conventions:
//
//   - Every endpoint lives under the version prefix ("/v1"); the read-only
//     status surface (/progress, /metrics, /events, /debug/pprof/) is
//     re-exported unversioned, matching the -status-addr server the CLIs
//     already expose.
//   - Requests and responses are JSON. Failures carry an ErrorEnvelope with
//     a machine-readable code (see the Code* constants) and a human
//     message; clients surface it as an *Error.
//   - Submission is idempotent by content: a sweep's ID is a hash over its
//     jobs' spec hashes, so re-submitting the same job list returns the
//     same sweep in whatever state it has reached, never a duplicate.
//   - Jobs are addressed by runspec content hash end to end. The hash is
//     worker-count- and host-invariant (runspec.Spec.Normalized folds
//     execution-only knobs), which is what makes the coordinator's result
//     corpus shareable across heterogeneous machines.
//
// The route table (Routes) is the single source of truth for the served
// endpoint set: the coordinator's mux is built from it, `simfarmd -routes`
// prints it, and scripts/docscheck.sh fails CI when a route is missing
// from DESIGN.md's "Sweep farm" chapter.
package api

import (
	"repro/internal/runspec"
	"repro/internal/sim"
)

// Version is the protocol version; it prefixes every farm-specific path.
const Version = "v1"

// Route describes one served endpoint, for mux registration and the
// docs-drift gate.
type Route struct {
	Method string
	Path   string
	Doc    string
}

// Farm endpoint paths. The trailing-slash paths take a trailing element
// ({sweep} or {hash}).
const (
	PathSubmit    = "/" + Version + "/sweeps"
	PathSweep     = "/" + Version + "/sweeps/"
	PathResult    = "/" + Version + "/results/"
	PathLease     = "/" + Version + "/jobs/lease"
	PathHeartbeat = "/" + Version + "/jobs/heartbeat"
	PathComplete  = "/" + Version + "/jobs/complete"
	PathWorkers   = "/" + Version + "/workers"
)

// Routes returns the full endpoint set the coordinator serves, in
// documentation order.
func Routes() []Route {
	return []Route{
		{Method: "POST", Path: PathSubmit, Doc: "submit a sweep (idempotent by content hash); returns the sweep ID"},
		{Method: "GET", Path: PathSweep, Doc: "sweep status: counts, a cursor, per-job rows, done ones with their summaries (?since=CURSOR: only rows changed since; &wait_ms=N: long-poll until one changes; {sweep} suffix)"},
		{Method: "GET", Path: PathResult, Doc: "one run's summary by spec content hash ({hash} suffix)"},
		{Method: "POST", Path: PathLease, Doc: "long-poll lease of the next queued job (worker pull)"},
		{Method: "POST", Path: PathHeartbeat, Doc: "renew a live lease before its TTL lapses"},
		{Method: "POST", Path: PathComplete, Doc: "push a leased job's summary or classified failure"},
		{Method: "POST", Path: PathWorkers, Doc: "register a worker and advertise its capabilities (name, version, memory)"},
		{Method: "GET", Path: "/progress", Doc: "aggregated sweep progress snapshot (JSON)"},
		{Method: "GET", Path: "/metrics", Doc: "Prometheus exposition: farm_* and sweep_* gauges"},
		{Method: "GET", Path: "/events", Doc: "live job-lifecycle stream (NDJSON, or SSE via Accept)"},
		{Method: "GET", Path: "/debug/pprof/", Doc: "coordinator pprof surface"},
	}
}

// Error codes carried by the error envelope.
const (
	// CodeBadRequest: the request body failed to parse or validate.
	CodeBadRequest = "bad_request"
	// CodeNotFound: the named sweep or result does not exist.
	CodeNotFound = "not_found"
	// CodeNotReady: the job exists but has no result yet.
	CodeNotReady = "not_ready"
	// CodeLeaseGone: the lease is unknown or already lapsed; the job may
	// have been re-leased to another worker, so the caller must drop it.
	CodeLeaseGone = "lease_gone"
	// CodeInternal: coordinator-side failure (e.g. the shared cache store).
	CodeInternal = "internal"
	// CodeUnauthorized: the request carried no bearer token, a wrong one,
	// or (under mutual TLS) no acceptable client certificate. Fatal for the
	// caller: retrying with the same credentials cannot succeed.
	CodeUnauthorized = "unauthorized"
)

// Error is the typed protocol error. Clients decode non-2xx responses into
// it, so HTTP status codes never need to be interpreted beyond "not 2xx".
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return "farm: " + e.Code + ": " + e.Message }

// ErrorEnvelope wraps an Error as a response body.
type ErrorEnvelope struct {
	Err Error `json:"error"`
}

// SubmitRequest submits a sweep: a batch of named specs in the
// runspec.ReadBatch format. Keys are display names; identity is the spec
// content hash.
type SubmitRequest struct {
	Jobs []runspec.Named `json:"jobs"`
}

// SubmitResponse acknowledges a submission. The counts classify the
// sweep's jobs at submit time: Cached jobs were satisfied by the
// coordinator's result corpus without dispatch, Done/Failed were already
// terminal from earlier sweeps sharing the same hashes, Pending jobs are
// queued or leased.
type SubmitResponse struct {
	Sweep   string `json:"sweep"`
	Jobs    int    `json:"jobs"`
	Cached  int    `json:"cached"`
	Done    int    `json:"done"`
	Failed  int    `json:"failed"`
	Pending int    `json:"pending"`
}

// LeaseRequest asks for the next queued job. Worker is a display name for
// status surfaces and the journal; WaitMS long-polls up to that many
// milliseconds when the queue is empty (capped by the coordinator).
type LeaseRequest struct {
	Worker string `json:"worker"`
	WaitMS int64  `json:"wait_ms,omitempty"`
}

// Lease is one granted job: the spec to execute, its content hash (the
// result address), the 1-based attempt number, and the lease TTL the
// worker must heartbeat within.
type Lease struct {
	ID      string       `json:"id"`
	Key     string       `json:"key"`
	Hash    string       `json:"hash"`
	Spec    runspec.Spec `json:"spec"`
	Attempt int          `json:"attempt"`
	TTLMS   int64        `json:"ttl_ms"`
}

// LeaseResponse carries the granted lease, or a nil Job when nothing was
// queued within the long-poll window (the worker just polls again).
type LeaseResponse struct {
	Job *Lease `json:"job"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Lease string `json:"lease"`
}

// HeartbeatResponse confirms the renewed TTL.
type HeartbeatResponse struct {
	TTLMS int64 `json:"ttl_ms"`
}

// Outcome classes a worker reports in CompleteRequest. They mirror the
// runner's failure taxonomy so coordinator-side retry accounting treats a
// remote worker exactly like a local worker goroutine: panics and timeouts
// are retryable, plain failures are not.
const (
	OutcomeOK      = "ok"
	OutcomeFailed  = "failed"
	OutcomePanic   = "panic"
	OutcomeTimeout = "timeout"
)

// CompleteRequest reports a leased job's terminal attempt: a summary on
// success, a classified error otherwise.
type CompleteRequest struct {
	Lease   string       `json:"lease"`
	Outcome string       `json:"outcome"`
	Summary *sim.Summary `json:"summary,omitempty"`
	Error   string       `json:"error,omitempty"`
}

// CompleteResponse reports the job's resulting state: done, failed, or
// queued (a retryable failure that was re-queued).
type CompleteResponse struct {
	State string `json:"state"`
}

// Job states reported by SweepStatus (and CompleteResponse.State).
const (
	StateQueued = "queued" // waiting for a worker (includes re-queued retries)
	StateLeased = "leased" // held by a worker under a live lease
	StateDone   = "done"   // completed by a worker; summary in the corpus
	StateCached = "cached" // satisfied by the corpus at submit time, never dispatched
	StateFailed = "failed" // terminal failure (retries exhausted or non-retryable)
)

// JobStatus is one job's row in a sweep status report. A done or cached
// row carries the job's summary, the one GET PathResult serves for its
// hash, so a client following a sweep needs no result request; rows in
// other states carry none.
type JobStatus struct {
	Key      string       `json:"key"`
	Hash     string       `json:"hash"`
	State    string       `json:"state"`
	Attempts int          `json:"attempts,omitempty"`
	Worker   string       `json:"worker,omitempty"`
	Error    string       `json:"error,omitempty"`
	Summary  *sim.Summary `json:"summary,omitempty"`
}

// SweepStatus is the state of one sweep. The counts cover every job;
// Complete is true once every job is terminal (done, cached, or failed).
// Jobs holds every row, or — when the request carried a since cursor from
// the same coordinator lifetime — only the rows whose job changed state
// after that cursor; done and cached rows carry their summaries, so each
// result travels once, in the answer that first shows its row terminal.
// Cursor is opaque: pass it back as since to get the next delta. A cursor
// from an earlier lifetime gets the full table. With wait_ms, a delta
// request that would carry no rows parks until one of the sweep's rows
// changes, the sweep is complete, or the window lapses.
type SweepStatus struct {
	Sweep    string      `json:"sweep"`
	Queued   int         `json:"queued"`
	Leased   int         `json:"leased"`
	Done     int         `json:"done"`
	Cached   int         `json:"cached"`
	Failed   int         `json:"failed"`
	Complete bool        `json:"complete"`
	Cursor   string      `json:"cursor"`
	Jobs     []JobStatus `json:"jobs"`
}

// GET PathSweep query parameters: QuerySince carries a SweepStatus.Cursor;
// QueryWait long-polls a delta for up to that many milliseconds (capped by
// the coordinator, like LeaseRequest.WaitMS).
const (
	QuerySince = "since"
	QueryWait  = "wait_ms"
)

// ResultResponse is one run's result: the summary plus the spec that
// produced it, mirroring the runner's self-describing cache entries.
type ResultResponse struct {
	Hash    string       `json:"hash"`
	Spec    runspec.Spec `json:"spec"`
	Summary *sim.Summary `json:"summary"`
}

// RegisterRequest announces a worker to the coordinator with its
// capabilities. Registration is advisory — leasing works without it — but
// registered workers appear with liveness on /progress, which is how an
// operator tells "the farm is idle" from "every worker is gone".
type RegisterRequest struct {
	Name string `json:"name"`
	// Version is the worker build's protocol/package version string.
	Version string `json:"version,omitempty"`
	// MaxMemMB advertises the memory budget the worker is willing to
	// dedicate to simulations (0 = unknown/unbounded).
	MaxMemMB int `json:"max_mem_mb,omitempty"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	// Workers is the number of workers currently known to the coordinator
	// (including this one).
	Workers int `json:"workers"`
}

// WorkerStatus is one registered worker's row in the coordinator's
// /progress report. Live reflects recent activity (registration, lease,
// heartbeat, or completion) within the coordinator's liveness window.
type WorkerStatus struct {
	Name        string `json:"name"`
	Version     string `json:"version,omitempty"`
	MaxMemMB    int    `json:"max_mem_mb,omitempty"`
	FirstSeenMS int64  `json:"first_seen_t_ms"`
	LastSeenMS  int64  `json:"last_seen_t_ms"`
	Live        bool   `json:"live"`
}
