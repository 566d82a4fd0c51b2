package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock is a deterministic, manually-advanced clock for snapshot math.
type fakeClock struct{ now time.Time }

func (f *fakeClock) advance(d time.Duration) { f.now = f.now.Add(d) }
func (f *fakeClock) fn() func() time.Time    { return func() time.Time { return f.now } }

func newTestCollector() (*Collector, *fakeClock) {
	c := New()
	clk := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	c.clock = clk.fn()
	return c, clk
}

// driveJob walks one job through a full successful lifecycle.
func driveJob(c *Collector, key string, cached bool) {
	c.JobQueued(key, "hash-"+key)
	c.JobStarted(key, "hash-"+key)
	if cached {
		c.CacheHit(key)
		c.JobDone(key, OutcomeCached, 0, "")
		return
	}
	c.CacheMiss(key)
	c.JobAttempt(key, 1)
	c.JobDone(key, OutcomeDone, 1, "")
}

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.SweepStart(3)
	c.JobQueued("a", "h")
	c.JobStarted("a", "h")
	c.JobAttempt("a", 1)
	c.CacheHit("a")
	c.CacheMiss("a")
	c.CacheCorrupt("a")
	c.JobPanic("a", 1)
	c.JobTimeout("a", 1)
	c.JobRetry("a", 1)
	c.JobDone("a", OutcomeDone, 1, "")
	c.SweepEnd()
	c.AttachSink(nil)
	if err := c.SinkErr(); err != nil {
		t.Fatal(err)
	}
	if p := c.Snapshot(); p.Jobs != 0 || p.Events != 0 {
		t.Fatalf("nil collector snapshot: %+v", p)
	}
	ch, cancel := c.Subscribe(1)
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("nil collector subscription must be a closed channel")
	}
}

func TestCollectorSnapshotMath(t *testing.T) {
	c, clk := newTestCollector()
	c.SweepStart(10)
	for _, k := range []string{"a", "b", "c", "d"} {
		c.JobQueued(k, "hash-"+k)
	}
	driveJob(c, "a", false)
	clk.advance(2 * time.Second)
	driveJob(c, "b", true)

	// c and d go in-flight with staggered start times; c takes a retry.
	c.JobStarted("c", "hash-c")
	c.JobAttempt("c", 1)
	c.JobPanic("c", 1)
	c.JobRetry("c", 1)
	c.JobAttempt("c", 2)
	clk.advance(1 * time.Second)
	c.JobStarted("d", "hash-d")

	clk.advance(1 * time.Second) // elapsed: 4s, completed: 2
	p := c.Snapshot()
	if p.Jobs != 10 || p.Completed != 2 || p.InFlight != 2 {
		t.Fatalf("counts: %+v", p)
	}
	if p.Simulated != 1 || p.Cached != 1 || p.Panics != 1 || p.Retries != 1 {
		t.Fatalf("outcome counts: %+v", p)
	}
	if p.CacheHitRatio != 0.5 {
		t.Fatalf("cache hit ratio = %v, want 0.5", p.CacheHitRatio)
	}
	if p.ElapsedS != 4 {
		t.Fatalf("elapsed = %v, want 4", p.ElapsedS)
	}
	if p.JobsPerSec != 0.5 {
		t.Fatalf("jobs/sec = %v, want 0.5", p.JobsPerSec)
	}
	if p.EtaS != 16 { // 8 remaining at 0.5 jobs/s
		t.Fatalf("eta = %v, want 16", p.EtaS)
	}
	if len(p.Slowest) != 2 || p.Slowest[0].Key != "c" || p.Slowest[1].Key != "d" {
		t.Fatalf("slowest must be sorted longest-running first: %+v", p.Slowest)
	}
	if p.Slowest[0].RunningMS != 2000 || p.Slowest[0].Attempt != 2 {
		t.Fatalf("slowest[0]: %+v", p.Slowest[0])
	}
}

func TestCollectorSubscribeAndDrop(t *testing.T) {
	c, _ := newTestCollector()
	ch, cancel := c.Subscribe(4)
	defer cancel()
	c.SweepStart(1)
	driveJob(c, "a", false)
	c.SweepEnd()

	var types []string
	for len(types) < 4 {
		types = append(types, (<-ch).Type)
	}
	want := []string{EventSweepStart, EventQueued, EventStarted, EventCacheMiss}
	for i, w := range want {
		if types[i] != w {
			t.Fatalf("event %d = %s, want %s (got %v)", i, types[i], w, types)
		}
	}
	// The subscriber buffer was 4 and 7 events were emitted: the overflow
	// must have been dropped without stalling the sweep (this point being
	// reached is the assertion), and seq numbers must still be contiguous
	// collector-side.
	if p := c.Snapshot(); p.Events != 7 {
		t.Fatalf("events = %d, want 7", p.Events)
	}
}

func TestCollectorSinkAndReplay(t *testing.T) {
	c, _ := newTestCollector()
	var buf bytes.Buffer
	c.AttachSink(&buf)

	c.SweepStart(4)
	for _, k := range []string{"ok", "hit", "flaky", "dead"} {
		c.JobQueued(k, "h-"+k)
	}
	driveJob(c, "ok", false)
	driveJob(c, "hit", true)
	// flaky: panic, retry, timeout, retry, success — 3 attempts.
	c.JobStarted("flaky", "h-flaky")
	c.JobAttempt("flaky", 1)
	c.JobPanic("flaky", 1)
	c.JobRetry("flaky", 1)
	c.JobAttempt("flaky", 2)
	c.JobTimeout("flaky", 2)
	c.JobRetry("flaky", 2)
	c.JobAttempt("flaky", 3)
	c.JobDone("flaky", OutcomeDone, 3, "")
	// dead: canceled before running.
	c.JobDone("dead", OutcomeCanceled, 0, "context canceled")
	c.SweepEnd()
	c.AttachSink(nil)
	if err := c.SinkErr(); err != nil {
		t.Fatal(err)
	}

	// Every line parses back into an event with contiguous seq.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	p := c.Snapshot()
	if uint64(len(lines)) != p.Events {
		t.Fatalf("journal has %d lines, collector emitted %d events", len(lines), p.Events)
	}

	path := filepath.Join(t.TempDir(), "sweep.telemetry.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(lines) {
		t.Fatalf("read %d events, want %d", len(evs), len(lines))
	}
	want := Totals{Jobs: 4, Simulated: 2, CacheHits: 1, Canceled: 1, Panics: 1, TimedOut: 1, Retried: 2}
	if tot := Replay(evs); tot != want {
		t.Fatalf("replay totals = %+v, want %+v", tot, want)
	}

	// A torn final line (crashed writer) is tolerated.
	torn := append(buf.Bytes(), `{"seq":999,"type":"done","ou`...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	evs, err = ReadJournal(path)
	if err != nil || len(evs) != len(lines) || Replay(evs) != want {
		t.Fatalf("torn replay: %d events, %+v, %v", len(evs), Replay(evs), err)
	}
}

func TestCollectorRegisterGauges(t *testing.T) {
	c, _ := newTestCollector()
	reg := obs.NewRegistry()
	c.Register(reg)
	c.SweepStart(3)
	driveJob(c, "a", false)
	driveJob(c, "b", true)

	got := map[string]float64{}
	for _, s := range reg.Snapshot().Samples {
		got[s.Name] = s.Value
	}
	want := map[string]float64{
		"sweep_jobs": 3, "sweep_completed": 2, "sweep_simulated": 1,
		"sweep_cached": 1, "sweep_cache_hit_ratio": 0.5, "sweep_in_flight": 0,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}
