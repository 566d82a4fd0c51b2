package farm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/farm/api"
	"repro/internal/obs/sweep"
	"repro/internal/runner"
)

// This file is the coordinator's durability story: replay rebuilds the job
// table, queue, and sweeps from the journal on startup, and compaction
// rewrites the journal down to the minimal record set that replays to the
// same state, so the file stops growing with history and starts growing
// only with live state.
//
// Compaction format — a valid journal that happens to be minimal:
//
//	{"kind":"submit","sweep":ID,"jobs":N,"keys":[...],"hashes":[...]}   per sweep, sorted by ID
//	{"kind":"cached","key":K,"hash":H,"spec":{...}}                     per terminal job with a summary, sorted by hash
//	{"kind":"failed","key":K,"hash":H,"spec":{...},"attempts":N,"error":E}
//	{"kind":"queued","key":K,"hash":H,"spec":{...},"attempts":N}        in queue order
//	{"kind":"lease","key":K,"hash":H,"spec":{...},"lease":L,"worker":W,"attempts":N}  per live lease, sorted by lease ID
//
// done jobs compact to "cached": their summaries live in the corpus (Close
// drains the corpus writer before it compacts), and "satisfied by the
// corpus, never dispatched" is exactly what holds for the journal's next
// reader. A done job whose corpus write never happened (the coordinator
// died between acknowledging and storing it) replays to queued and runs
// once more. Live leases compact to lease records; replay treats any
// lease with no terminal record as lost to the restart and requeues it
// under the ordinary retry policy (the old worker's heartbeat answers
// lease_gone, aborting its attempt).

// replayLocked rebuilds coordinator state from journal records, in order.
// It runs once, from NewCoordinator, before the coordinator serves
// anything. Jobs that were leased when the journal ends are requeued or
// failed by the retry policy; done/cached jobs whose corpus entry
// disappeared are re-queued when their spec is known, failed otherwise.
//
// A job is keyed by its journaled spec's current hash. A journal written
// before a change to runspec.Spec.Normalized may address a job by the hash
// its spec had then; under that old hash the corpus entry's spec no longer
// hashes to its own address (the cache quarantines it as corrupt), and a
// result stored there would be unreachable to every current submission. So
// such a job, and every sweep listing it, moves to the current hash, where
// the corpus either holds the run or the job simulates once.
func (c *Coordinator) replayLocked(recs []JournalRecord) {
	rekey := map[string]string{}
	for _, rec := range recs {
		if rec.Spec == nil || rec.Hash == "" {
			continue
		}
		if h, err := rec.Spec.Hash(); err == nil && h != rec.Hash {
			rekey[rec.Hash] = h
		}
	}
	current := func(h string) string {
		if nh, ok := rekey[h]; ok {
			return nh
		}
		return h
	}
	ensure := func(rec JournalRecord) *job {
		j := c.jobs[rec.Hash]
		if j == nil {
			j = &job{hash: rec.Hash}
			c.jobs[rec.Hash] = j
		}
		if j.key == "" {
			j.key = rec.Key
		}
		if j.spec.Scheme == "" && rec.Spec != nil {
			j.spec = *rec.Spec
		}
		if rec.Attempts > j.attempts {
			j.attempts = rec.Attempts
		}
		return j
	}
	terminalJob := func(j *job) bool {
		switch j.state {
		case api.StateDone, api.StateCached, api.StateFailed:
			return true
		}
		return false
	}
	// resolve settles a job whose journal says "summary is in the corpus".
	// A done job from an earlier lifetime becomes cached: for this
	// lifetime it is satisfied by the corpus and never dispatched, which
	// also keeps warm resubmissions reporting (cached) exactly like a
	// coordinator that never read a journal.
	resolve := func(j *job) {
		if sum, ok := c.cache.Load(j.hash); ok {
			j.state = api.StateCached
			j.summary = &runner.Entry{Hash: j.hash, Spec: j.spec.Normalized(), Summary: sum}
			return
		}
		if j.spec.Scheme != "" {
			j.state = api.StateQueued
			c.queue = append(c.queue, j.hash)
			return
		}
		j.state = api.StateFailed
		j.errText = "result lost from corpus and spec not journaled; resubmit the sweep"
	}

	for _, rec := range recs {
		rec.Hash = current(rec.Hash)
		switch rec.Kind {
		case "submit":
			// Legacy submit records (pre-compaction) carry no job list and
			// cannot restore the sweep; a resubmission recreates it, since
			// the jobs themselves are keyed by hash.
			if len(rec.Hashes) > 0 && len(rec.Hashes) == len(rec.Keys) {
				if c.sweeps[rec.Sweep] == nil {
					hashes := make([]string, len(rec.Hashes))
					for i, h := range rec.Hashes {
						hashes[i] = current(h)
					}
					c.sweeps[rec.Sweep] = &sweepState{hashes: hashes, keys: rec.Keys}
				}
			}
		case "queued", "requeue":
			j := ensure(rec)
			if terminalJob(j) {
				continue
			}
			j.state = api.StateQueued
			j.worker = ""
			c.queue = append(c.queue, rec.Hash)
		case "lease":
			j := ensure(rec)
			if terminalJob(j) {
				continue
			}
			j.state = api.StateLeased
			j.worker = rec.Worker
			if seq := leaseSeq(rec.Lease); seq > c.leaseSeq {
				c.leaseSeq = seq
			}
		case "done", "cached":
			j := ensure(rec)
			resolve(j)
		case "failed":
			j := ensure(rec)
			j.state = api.StateFailed
			j.errText = rec.Error
			if j.errText == "" {
				j.errText = "job failed"
			}
		case "expire", "store_error":
			// expire is always followed by its requeue/failed record;
			// store_error is diagnostic only.
		}
	}

	// Settle the leftovers. A job still leased when the journal ends lost
	// its coordinator mid-lease: apply the ordinary retry policy (the
	// attempt was charged at lease time). A queued job whose spec never
	// made it into the journal (pre-spec-record journals) cannot be
	// dispatched — fail it loudly rather than wedging the queue.
	hashes := make([]string, 0, len(c.jobs))
	for h := range c.jobs {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	fresh := 0
	for _, h := range hashes {
		j := c.jobs[h]
		if !terminalJob(j) {
			fresh++
			c.cfg.Collector.JobQueued(j.key, j.hash)
		}
	}
	if fresh > 0 {
		c.cfg.Collector.SweepStart(fresh)
	}
	for _, h := range hashes {
		j := c.jobs[h]
		switch {
		case j.state == api.StateLeased:
			c.requeueOrFailLocked(j, fmt.Sprintf("lease lost to coordinator restart (worker %s)", j.worker), true)
		case j.state == api.StateQueued && j.spec.Scheme == "":
			j.state = api.StateFailed
			j.errText = "spec not journaled (journal predates spec records); resubmit the sweep"
			c.cfg.Collector.JobDone(j.key, sweep.OutcomeFailed, j.attempts, j.errText)
		}
	}
	// Cached jobs restored from the corpus count as completed for the
	// collector only via their sweeps' resubmission; the collector tracks
	// this lifetime's work, not history.
}

// leaseSeq parses the sequence number out of a lease ID ("l<seq>-<hash8>").
// Restoring the high-water mark across restarts keeps fresh lease IDs from
// colliding with stale ones still held by workers that outlived the
// restart.
func leaseSeq(id string) uint64 {
	if !strings.HasPrefix(id, "l") {
		return 0
	}
	num, _, ok := strings.Cut(id[1:], "-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// snapshotRecordsLocked renders the coordinator's live state as the
// minimal journal that replays to it. Deterministic: sweeps sorted by ID,
// terminal jobs by hash, queued jobs in queue order, leases by lease ID —
// so two snapshots of identical state are byte-identical. Callers hold
// c.mu.
func (c *Coordinator) snapshotRecordsLocked() []JournalRecord {
	now := c.cfg.Clock().UnixMilli()
	var recs []JournalRecord

	ids := make([]string, 0, len(c.sweeps))
	for id := range c.sweeps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := c.sweeps[id]
		recs = append(recs, JournalRecord{
			TMS: now, Kind: "submit", Sweep: id, Jobs: len(st.hashes),
			Keys: st.keys, Hashes: st.hashes,
		})
	}

	hashes := make([]string, 0, len(c.jobs))
	for h := range c.jobs {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		j := c.jobs[h]
		sp := j.spec
		switch j.state {
		case api.StateDone, api.StateCached:
			recs = append(recs, JournalRecord{TMS: now, Kind: "cached", Key: j.key, Hash: h, Spec: &sp})
		case api.StateFailed:
			recs = append(recs, JournalRecord{
				TMS: now, Kind: "failed", Key: j.key, Hash: h, Spec: &sp,
				Attempts: j.attempts, Error: j.errText,
			})
		}
	}

	seen := map[string]bool{}
	for _, h := range c.queue {
		j := c.jobs[h]
		if j == nil || j.state != api.StateQueued || seen[h] {
			continue
		}
		seen[h] = true
		sp := j.spec
		recs = append(recs, JournalRecord{
			TMS: now, Kind: "queued", Key: j.key, Hash: h, Spec: &sp, Attempts: j.attempts,
		})
	}

	leaseIDs := make([]string, 0, len(c.leases))
	for id := range c.leases {
		leaseIDs = append(leaseIDs, id)
	}
	sort.Strings(leaseIDs)
	for _, id := range leaseIDs {
		j := c.leases[id]
		sp := j.spec
		recs = append(recs, JournalRecord{
			TMS: now, Kind: "lease", Key: j.key, Hash: j.hash, Spec: &sp,
			Lease: id, Worker: j.worker, Attempts: j.attempts,
		})
	}
	return recs
}

// compactLocked rewrites the journal to the state snapshot. Errors are
// remembered like append errors: the journal is an aid, never a
// dependency of the serving path. Callers hold c.mu.
func (c *Coordinator) compactLocked() {
	if err := c.journal.rewrite(c.snapshotRecordsLocked()); err != nil && c.jerr == nil {
		c.jerr = err
	}
	c.compacted = c.journal.bytes()
}
