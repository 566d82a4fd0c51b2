// Package runspec defines the declarative, serializable description of one
// simulation run. A Spec round-trips to and from sim.Config (minus the
// non-addressable in-process hooks: explicit trace sources and observers),
// and carries a canonical content hash over every behavior-affecting knob.
// That hash names the run: the runner's result cache stores summaries under
// it, sweeps schedule by it, and resuming a sweep means re-running only the
// hashes with no cache entry.
//
// The hash is deliberately narrower than the spec: Normalized folds the
// simulator's defaulting rules (an unset knob and an explicitly-set
// default are the same run) and zeroes a deprecated, ignored field that
// old spec files may still carry. That makes
// hashes — and therefore cache entries, sweep journals, and farm result
// corpora — invariant across host machines: any two machines that agree
// on a spec's canonical JSON agree on its identity.
//
// Batches (batch.go) extend the same discipline to job lists: a Named
// pairs a display key with a spec, ReadBatch/WriteBatch define the on-disk
// and on-wire batch format, ValidateBatch rejects duplicate keys and
// unresolvable specs before any simulation is scheduled, and SweepID names
// a job set by its spec hashes (the runner's sweep journals and the farm's
// sweep IDs). The farm
// submission API (internal/farm/api) and the simfarm client both speak
// this format.
package runspec
