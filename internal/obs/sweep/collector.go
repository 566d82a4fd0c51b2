package sweep

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Event types, in lifecycle order.
const (
	// EventSweepStart opens a batch: Jobs carries the batch size. A
	// collector shared across several batches records one per batch and
	// sums the totals.
	EventSweepStart = "sweep_start"
	// EventQueued marks a job submitted to the worker pool.
	EventQueued = "queued"
	// EventStarted marks a worker picking the job up.
	EventStarted = "started"
	// EventCacheHit / EventCacheMiss / EventCacheCorrupt record the result
	// cache consultation (corrupt entries are quarantined and re-simulated).
	EventCacheHit     = "cache_hit"
	EventCacheMiss    = "cache_miss"
	EventCacheCorrupt = "cache_corrupt"
	// EventAttempt marks the start of simulation attempt N (1-based).
	EventAttempt = "attempt"
	// EventPanic / EventTimeout record a failed attempt (each attempt
	// counts); EventRetry records the decision to re-run after one.
	EventPanic   = "panic"
	EventTimeout = "timeout"
	EventRetry   = "retry"
	// EventExpired records a farm lease lapsing: the worker holding the job
	// stopped heartbeating (crashed, hung, or partitioned) and the attempt
	// is charged without a worker-reported failure. Always followed by a
	// retry or a done event, exactly like panic/timeout.
	EventExpired = "expired"
	// EventDone is the job's terminal record; Outcome holds one of the
	// Outcome* states and DurMS the started→done wall time.
	EventDone = "done"
	// EventSweepEnd closes a batch.
	EventSweepEnd = "sweep_end"
)

// Terminal outcomes carried by EventDone; the runner classifies every
// finished job into exactly one of them.
const (
	OutcomeDone     = "done"     // simulated to completion
	OutcomeCached   = "cached"   // served from the result cache
	OutcomeFailed   = "failed"   // terminal non-retryable error
	OutcomePanic    = "panic"    // terminal failure was a recovered panic
	OutcomeTimeout  = "timeout"  // terminal failure was a job-deadline expiry
	OutcomeCanceled = "canceled" // skipped: the batch stopped before the job ran
)

// Event is one job-lifecycle observation. Events are strictly ordered by
// Seq (per collector) and serialized as single JSONL lines in the
// telemetry journal and the /events stream.
type Event struct {
	Seq  uint64 `json:"seq"`
	TMS  int64  `json:"t_ms"` // wall-clock, Unix milliseconds
	Type string `json:"type"`
	Key  string `json:"key,omitempty"`
	Hash string `json:"hash,omitempty"`
	// Attempt is the 1-based attempt number on attempt/panic/timeout/retry
	// events and the total attempt count on done events.
	Attempt int `json:"attempt,omitempty"`
	// Outcome and DurMS are set on done events only.
	Outcome string  `json:"outcome,omitempty"`
	DurMS   float64 `json:"dur_ms,omitempty"`
	// Jobs is the batch size on sweep_start events.
	Jobs  int    `json:"jobs,omitempty"`
	Error string `json:"error,omitempty"`
}

// InFlightJob describes one currently running job in a Progress snapshot.
type InFlightJob struct {
	Key       string  `json:"key"`
	Hash      string  `json:"hash,omitempty"`
	Attempt   int     `json:"attempt"`
	RunningMS float64 `json:"running_ms"`
}

// Progress is a consistent point-in-time snapshot of a sweep: every count
// is taken under the same lock, so completed+in_flight+pending always adds
// up. Failed counts terminal failures of any class (failed, panic,
// timeout); Panics/Timeouts/Retries count per-attempt events and can exceed
// the number of failed jobs when retries succeed.
type Progress struct {
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	InFlight  int `json:"in_flight"`
	Simulated int `json:"simulated"`
	Cached    int `json:"cached"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	Panics    int `json:"panics"`
	Timeouts  int `json:"timeouts"`
	Retries   int `json:"retries"`
	// Expired counts farm leases that lapsed because their worker stopped
	// heartbeating (zero for in-process sweeps).
	Expired int `json:"expired,omitempty"`
	// CacheCorrupt counts quarantined cache entries that forced a
	// re-simulation.
	CacheCorrupt int `json:"cache_corrupt,omitempty"`
	// CacheHitRatio is cached / (cached + simulated) over terminal jobs.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	ElapsedS      float64 `json:"elapsed_s"`
	// JobsPerSec is the completed-job rate since the first sweep_start.
	JobsPerSec float64 `json:"jobs_per_sec"`
	// EtaS estimates seconds until the remaining jobs complete at the
	// current rate (0 when unknown: nothing completed yet or nothing left).
	EtaS float64 `json:"eta_s"`
	// Events is the number of lifecycle events recorded so far.
	Events uint64 `json:"events"`
	// Slowest lists the longest-running in-flight jobs, slowest first
	// (capped; see slowestCap).
	Slowest []InFlightJob `json:"slowest_in_flight,omitempty"`
}

// slowestCap bounds the Slowest list in a Progress snapshot.
const slowestCap = 8

// jobState is the collector's per-job bookkeeping between queued and done.
type jobState struct {
	hash    string
	started time.Time
	running bool
	attempt int
}

// Collector accumulates job-lifecycle events for one sweep (or several
// sequential batches sharing one status surface). All methods are safe for
// concurrent use and safe on a nil receiver, so callers thread it
// unconditionally and a nil collector means "telemetry off".
type Collector struct {
	mu    sync.Mutex
	clock func() time.Time // test seam; time.Now outside tests

	seq   uint64
	start time.Time // first sweep_start

	total     int
	completed int
	byOutcome map[string]int
	panics    int
	timeouts  int
	retries   int
	expired   int
	corrupt   int

	jobs map[string]*jobState // queued-or-running, keyed by job key

	sink    io.Writer
	sinkErr error

	subs    map[int]chan Event
	nextSub int
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		clock:     time.Now,
		byOutcome: map[string]int{},
		jobs:      map[string]*jobState{},
		subs:      map[int]chan Event{},
	}
}

// emit assigns seq/timestamp, updates bookkeeping already done by the
// caller, journals, and fans out. Callers hold c.mu.
func (c *Collector) emit(ev Event) {
	c.seq++
	ev.Seq = c.seq
	ev.TMS = c.clock().UnixMilli()
	if c.sink != nil {
		line, err := json.Marshal(ev)
		if err == nil {
			_, err = c.sink.Write(append(line, '\n'))
		}
		if err != nil && c.sinkErr == nil {
			c.sinkErr = err
		}
	}
	for _, ch := range c.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than stall the sweep
		}
	}
}

// SweepStart records the opening of a batch of n jobs.
func (c *Collector) SweepStart(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.start.IsZero() {
		c.start = c.clock()
	}
	c.total += n
	c.emit(Event{Type: EventSweepStart, Jobs: n})
}

// SweepEnd records the close of a batch.
func (c *Collector) SweepEnd() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.emit(Event{Type: EventSweepEnd})
}

// JobQueued records a job's submission to the worker pool.
func (c *Collector) JobQueued(key, hash string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jobs[key] = &jobState{hash: hash}
	c.emit(Event{Type: EventQueued, Key: key, Hash: hash})
}

// job returns (creating if the queued event was never seen) the state for
// key. Callers hold c.mu.
func (c *Collector) job(key, hash string) *jobState {
	st := c.jobs[key]
	if st == nil {
		st = &jobState{}
		c.jobs[key] = st
	}
	if hash != "" {
		st.hash = hash
	}
	return st
}

// JobStarted records a worker picking the job up.
func (c *Collector) JobStarted(key, hash string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.job(key, hash)
	st.started = c.clock()
	st.running = true
	c.emit(Event{Type: EventStarted, Key: key, Hash: st.hash})
}

// JobAttempt records the start of simulation attempt n (1-based).
func (c *Collector) JobAttempt(key string, n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.job(key, "")
	st.attempt = n
	c.emit(Event{Type: EventAttempt, Key: key, Hash: st.hash, Attempt: n})
}

// cacheEvent emits one of the cache_* event types for key.
func (c *Collector) cacheEvent(typ, key string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.job(key, "")
	if typ == EventCacheCorrupt {
		c.corrupt++
	}
	c.emit(Event{Type: typ, Key: key, Hash: st.hash})
}

// CacheHit / CacheMiss / CacheCorrupt record the result-cache consultation.
func (c *Collector) CacheHit(key string)     { c.cacheEvent(EventCacheHit, key) }
func (c *Collector) CacheMiss(key string)    { c.cacheEvent(EventCacheMiss, key) }
func (c *Collector) CacheCorrupt(key string) { c.cacheEvent(EventCacheCorrupt, key) }

// attemptEvent emits a per-attempt failure/retry event and bumps its
// counter.
func (c *Collector) attemptEvent(typ, key string, n int, counter *int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	*counter++
	st := c.job(key, "")
	c.emit(Event{Type: typ, Key: key, Hash: st.hash, Attempt: n})
}

// JobPanic records a recovered panic on attempt n.
func (c *Collector) JobPanic(key string, n int) {
	if c == nil {
		return
	}
	c.attemptEvent(EventPanic, key, n, &c.panics)
}

// JobTimeout records a job-deadline expiry on attempt n.
func (c *Collector) JobTimeout(key string, n int) {
	if c == nil {
		return
	}
	c.attemptEvent(EventTimeout, key, n, &c.timeouts)
}

// JobRetry records the decision to re-run after a retryable failure; n is
// the attempt being retried.
func (c *Collector) JobRetry(key string, n int) {
	if c == nil {
		return
	}
	c.attemptEvent(EventRetry, key, n, &c.retries)
}

// JobExpired records a farm lease lapsing on attempt n: the worker holding
// the job stopped heartbeating. The coordinator forwards this span on the
// worker's behalf — the one lifecycle transition a remote fleet has that
// an in-process sweep does not.
func (c *Collector) JobExpired(key string, n int) {
	if c == nil {
		return
	}
	c.attemptEvent(EventExpired, key, n, &c.expired)
}

// JobDone records a job's terminal state. outcome is one of the Outcome*
// constants, attempts the total attempt count, errText the terminal error
// ("" on success).
func (c *Collector) JobDone(key, outcome string, attempts int, errText string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.job(key, "")
	ev := Event{Type: EventDone, Key: key, Hash: st.hash, Outcome: outcome, Attempt: attempts, Error: errText}
	if st.running {
		ev.DurMS = float64(c.clock().Sub(st.started)) / float64(time.Millisecond)
	}
	delete(c.jobs, key)
	c.completed++
	c.byOutcome[outcome]++
	c.emit(ev)
}

// SinkErr returns the first error encountered writing the telemetry
// journal, if any.
func (c *Collector) SinkErr() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sinkErr
}

// AttachSink journals every subsequent event to w as one JSON line each
// (the telemetry.jsonl format; see ReadJournal). The caller owns w's lifetime;
// pass nil to detach. Write errors are remembered (first one wins) and
// reported by SinkErr, never propagated into the sweep.
func (c *Collector) AttachSink(w io.Writer) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sink = w
}

// Subscribe returns a channel receiving every subsequent event, and a
// cancel function that must be called to release it. A subscriber that
// falls more than buf events behind misses the overflow (the sweep is
// never stalled by a slow reader); buf <= 0 defaults to 256.
func (c *Collector) Subscribe(buf int) (<-chan Event, func()) {
	if c == nil {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}
	}
	if buf <= 0 {
		buf = 256
	}
	ch := make(chan Event, buf)
	c.mu.Lock()
	id := c.nextSub
	c.nextSub++
	c.subs[id] = ch
	c.mu.Unlock()
	return ch, func() {
		c.mu.Lock()
		delete(c.subs, id)
		c.mu.Unlock()
	}
}

// Snapshot returns a consistent Progress view of the sweep so far. Safe to
// call at any time, including from other goroutines mid-sweep; a nil
// collector yields the zero Progress.
func (c *Collector) Snapshot() Progress {
	if c == nil {
		return Progress{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	p := Progress{
		Jobs:         c.total,
		Completed:    c.completed,
		Simulated:    c.byOutcome[OutcomeDone],
		Cached:       c.byOutcome[OutcomeCached],
		Failed:       c.byOutcome[OutcomeFailed] + c.byOutcome[OutcomePanic] + c.byOutcome[OutcomeTimeout],
		Canceled:     c.byOutcome[OutcomeCanceled],
		Panics:       c.panics,
		Timeouts:     c.timeouts,
		Retries:      c.retries,
		Expired:      c.expired,
		CacheCorrupt: c.corrupt,
		Events:       c.seq,
	}
	if resolved := p.Cached + p.Simulated; resolved > 0 {
		p.CacheHitRatio = float64(p.Cached) / float64(resolved)
	}
	if !c.start.IsZero() {
		p.ElapsedS = now.Sub(c.start).Seconds()
	}
	if p.ElapsedS > 0 && p.Completed > 0 {
		p.JobsPerSec = float64(p.Completed) / p.ElapsedS
		if remaining := p.Jobs - p.Completed; remaining > 0 {
			p.EtaS = float64(remaining) / p.JobsPerSec
		}
	}
	for key, st := range c.jobs {
		if !st.running {
			continue
		}
		p.InFlight++
		p.Slowest = append(p.Slowest, InFlightJob{
			Key:       key,
			Hash:      st.hash,
			Attempt:   st.attempt,
			RunningMS: float64(now.Sub(st.started)) / float64(time.Millisecond),
		})
	}
	sort.Slice(p.Slowest, func(i, j int) bool {
		if p.Slowest[i].RunningMS != p.Slowest[j].RunningMS {
			return p.Slowest[i].RunningMS > p.Slowest[j].RunningMS
		}
		return p.Slowest[i].Key < p.Slowest[j].Key
	})
	if len(p.Slowest) > slowestCap {
		p.Slowest = p.Slowest[:slowestCap]
	}
	return p
}

// Register exposes the sweep's live progress through an obs metrics
// registry as sweep_* gauges. Unlike simulation-owned metrics, these gauges
// are safe to snapshot mid-sweep: each read takes a consistent Snapshot
// under the collector's lock.
func (c *Collector) Register(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	g := func(name string, f func(Progress) float64) {
		reg.Gauge("sweep_"+name, nil, func() float64 { return f(c.Snapshot()) })
	}
	g("jobs", func(p Progress) float64 { return float64(p.Jobs) })
	g("completed", func(p Progress) float64 { return float64(p.Completed) })
	g("in_flight", func(p Progress) float64 { return float64(p.InFlight) })
	g("simulated", func(p Progress) float64 { return float64(p.Simulated) })
	g("cached", func(p Progress) float64 { return float64(p.Cached) })
	g("failed", func(p Progress) float64 { return float64(p.Failed) })
	g("canceled", func(p Progress) float64 { return float64(p.Canceled) })
	g("panics", func(p Progress) float64 { return float64(p.Panics) })
	g("timeouts", func(p Progress) float64 { return float64(p.Timeouts) })
	g("retries", func(p Progress) float64 { return float64(p.Retries) })
	g("expired", func(p Progress) float64 { return float64(p.Expired) })
	g("cache_hit_ratio", func(p Progress) float64 { return p.CacheHitRatio })
	g("jobs_per_sec", func(p Progress) float64 { return p.JobsPerSec })
	g("eta_seconds", func(p Progress) float64 { return p.EtaS })
}
