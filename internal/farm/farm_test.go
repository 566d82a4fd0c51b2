package farm

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/farm/api"
	"repro/internal/obs/sweep"
	"repro/internal/runner"
	"repro/internal/runspec"
	"repro/internal/sim"
)

// fakeClock is the lease-expiry test seam: tests advance it explicitly and
// drive Tick, so expiry scenarios run in microseconds of wall time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// testFarm boots a coordinator behind a real httptest server and returns
// the protocol client pointed at it, so every test exercises the full wire
// path: client → HTTP → mux → handlers → coordinator.
func testFarm(t *testing.T, cfg Config) (*Coordinator, *Client) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(co))
	t.Cleanup(func() {
		srv.Close()
		co.Close()
	})
	return co, NewClient(srv.URL)
}

// protoJob builds a cheap valid spec for protocol tests (never executed).
func protoJob(key string, seed int64) runspec.Named {
	return runspec.Named{Key: key, Spec: runspec.Spec{
		Scheme: "nonsecure", Benchmark: "lbm", Cores: 1, OpsPerCore: 300, Seed: seed,
	}}
}

func errCode(t *testing.T, err error) string {
	t.Helper()
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("want *api.Error, got %T: %v", err, err)
	}
	return ae.Code
}

// TestFarmLifecycle walks the happy path over the wire: submit → lease →
// heartbeat → complete → status → result.
func TestFarmLifecycle(t *testing.T) {
	clock := newFakeClock()
	co, cl := testFarm(t, Config{LeaseTTL: 30 * time.Second, Clock: clock.Now})
	ctx := context.Background()

	jobs := []runspec.Named{protoJob("a", 1), protoJob("b", 2)}
	sub, err := cl.Submit(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Jobs != 2 || sub.Pending != 2 || sub.Cached != 0 {
		t.Fatalf("submit response: %+v", sub)
	}

	lease, err := cl.Lease(ctx, "w1", 0)
	if err != nil || lease == nil {
		t.Fatalf("lease: %v %v", lease, err)
	}
	if lease.Key != "a" || lease.Attempt != 1 || lease.TTLMS != 30_000 {
		t.Fatalf("lease: %+v", lease)
	}
	wantHash, _ := jobs[0].Spec.Hash()
	if lease.Hash != wantHash {
		t.Fatalf("lease hash %s, want %s", lease.Hash, wantHash)
	}

	// Heartbeats keep the lease alive across what would otherwise be two
	// expiries.
	for i := 0; i < 2; i++ {
		clock.Advance(20 * time.Second)
		if err := cl.Heartbeat(ctx, lease.ID); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	co.Tick()

	sum := &sim.Summary{Scheme: "nonsecure", Cycles: 12345}
	comp, err := cl.Complete(ctx, api.CompleteRequest{Lease: lease.ID, Outcome: api.OutcomeOK, Summary: sum})
	if err != nil || comp.State != api.StateDone {
		t.Fatalf("complete: %+v %v", comp, err)
	}

	st, err := cl.Sweep(ctx, sub.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Queued != 1 || st.Complete {
		t.Fatalf("sweep status: %+v", st)
	}
	if st.Jobs[0].Key != "a" || st.Jobs[0].State != api.StateDone || st.Jobs[0].Attempts != 1 {
		t.Fatalf("job row: %+v", st.Jobs[0])
	}

	res, err := cl.Result(ctx, lease.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary == nil || res.Summary.Cycles != 12345 {
		t.Fatalf("result: %+v", res)
	}

	// The pending job's result is not ready; a bogus hash is not found.
	bHash, _ := jobs[1].Spec.Hash()
	if _, err := cl.Result(ctx, bHash); errCode(t, err) != api.CodeNotReady {
		t.Fatalf("pending result: %v", err)
	}
	if _, err := cl.Result(ctx, "feedfeed"); errCode(t, err) != api.CodeNotFound {
		t.Fatalf("missing result: %v", err)
	}
	if _, err := cl.Sweep(ctx, "nope"); errCode(t, err) != api.CodeNotFound {
		t.Fatalf("missing sweep: %v", err)
	}

	// Complete answers before the corpus writer stores the summary, and
	// Close drains the writer: after it, the pushed result must be in the
	// shared corpus, not just in memory.
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := runner.NewCache(co.cfg.CacheDir).Load(lease.Hash); !ok {
		t.Fatal("completed summary must land in the corpus directory")
	}
	// A second Close succeeds and leaves the closed journal as it was.
	before, err := os.ReadFile(JournalPath(co.cfg.CacheDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	after, err := os.ReadFile(JournalPath(co.cfg.CacheDir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a second Close rewrote the journal")
	}
}

// TestFarmExpireRelease is the reliability path: a lease that stops
// heartbeating lapses on Tick, the job re-queues, a second worker re-leases
// it at attempt 2 and completes it; the dead worker's late heartbeat and
// completion are rejected with lease_gone.
func TestFarmExpireRelease(t *testing.T) {
	clock := newFakeClock()
	co, cl := testFarm(t, Config{LeaseTTL: 30 * time.Second, Retries: 1, Clock: clock.Now})
	ctx := context.Background()

	if _, err := cl.Submit(ctx, []runspec.Named{protoJob("a", 1)}); err != nil {
		t.Fatal(err)
	}
	dead, err := cl.Lease(ctx, "dead-worker", 0)
	if err != nil || dead == nil {
		t.Fatalf("lease: %v %v", dead, err)
	}

	// Silence past the TTL: the background-ticker path (here driven by
	// hand) lapses the lease.
	clock.Advance(31 * time.Second)
	co.Tick()

	release, err := cl.Lease(ctx, "w2", 0)
	if err != nil || release == nil {
		t.Fatalf("re-lease after expiry: %v %v", release, err)
	}
	if release.Attempt != 2 || release.ID == dead.ID {
		t.Fatalf("re-lease must be attempt 2 under a fresh lease ID: %+v", release)
	}

	// The dead worker comes back: both its heartbeat and its completion
	// must bounce so it cannot race the re-run.
	if err := cl.Heartbeat(ctx, dead.ID); errCode(t, err) != api.CodeLeaseGone {
		t.Fatalf("late heartbeat: %v", err)
	}
	_, err = cl.Complete(ctx, api.CompleteRequest{Lease: dead.ID, Outcome: api.OutcomeOK, Summary: &sim.Summary{}})
	if errCode(t, err) != api.CodeLeaseGone {
		t.Fatalf("late complete: %v", err)
	}

	comp, err := cl.Complete(ctx, api.CompleteRequest{Lease: release.ID, Outcome: api.OutcomeOK, Summary: &sim.Summary{Cycles: 7}})
	if err != nil || comp.State != api.StateDone {
		t.Fatalf("second worker's complete: %+v %v", comp, err)
	}

	// One more expiry would exceed Retries=1 — but the job is done, so the
	// journal must show exactly one expire/requeue pair.
	recs, err := ReadJournal(JournalPath(co.cfg.CacheDir))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, r := range recs {
		kinds[r.Kind]++
	}
	if kinds["expire"] != 1 || kinds["requeue"] != 1 || kinds["lease"] != 2 || kinds["done"] != 1 {
		t.Fatalf("journal kinds: %v", kinds)
	}
}

// TestFarmRetryAccounting: retryable outcomes (panic, timeout) re-queue
// until attempts exceed Retries, then the job fails terminally; a plain
// failure is terminal immediately.
func TestFarmRetryAccounting(t *testing.T) {
	clock := newFakeClock()
	_, cl := testFarm(t, Config{LeaseTTL: time.Minute, Retries: 1, Clock: clock.Now})
	ctx := context.Background()

	jobs := []runspec.Named{protoJob("flaky", 1), protoJob("broken", 2)}
	sub, err := cl.Submit(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}

	// flaky: panic on attempt 1 → requeued; timeout on attempt 2 → failed
	// (attempts exhausted).
	l1, _ := cl.Lease(ctx, "w", 0)
	comp, err := cl.Complete(ctx, api.CompleteRequest{Lease: l1.ID, Outcome: api.OutcomePanic, Error: "injected panic"})
	if err != nil || comp.State != api.StateQueued {
		t.Fatalf("retryable failure must re-queue: %+v %v", comp, err)
	}

	// broken: plain failure is non-retryable even with retries budgeted.
	l2, _ := cl.Lease(ctx, "w", 0)
	if l2.Key != "broken" {
		// FIFO: broken was queued before flaky's requeue.
		t.Fatalf("lease order: got %s", l2.Key)
	}
	comp, err = cl.Complete(ctx, api.CompleteRequest{Lease: l2.ID, Outcome: api.OutcomeFailed, Error: "bad spec semantics"})
	if err != nil || comp.State != api.StateFailed {
		t.Fatalf("plain failure must be terminal: %+v %v", comp, err)
	}

	l3, _ := cl.Lease(ctx, "w", 0)
	if l3.Key != "flaky" || l3.Attempt != 2 {
		t.Fatalf("flaky re-lease: %+v", l3)
	}
	comp, err = cl.Complete(ctx, api.CompleteRequest{Lease: l3.ID, Outcome: api.OutcomeTimeout, Error: "injected timeout"})
	if err != nil || comp.State != api.StateFailed {
		t.Fatalf("attempts exhausted must fail: %+v %v", comp, err)
	}

	st, err := cl.Sweep(ctx, sub.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.Failed != 2 {
		t.Fatalf("sweep status: %+v", st)
	}
	for _, j := range st.Jobs {
		if j.Error == "" {
			t.Fatalf("failed job %s must carry its error", j.Key)
		}
	}
	// A failed job's result names the failure.
	h, _ := jobs[0].Spec.Hash()
	_, err = cl.Result(ctx, h)
	if errCode(t, err) != api.CodeNotFound || !strings.Contains(err.Error(), "injected timeout") {
		t.Fatalf("failed result: %v", err)
	}
}

// TestFarmSubmitIdempotent: the sweep ID is content-derived, so re-submits
// (in any order) return the same sweep, and a second sweep sharing a spec
// shares the job instead of duplicating it.
func TestFarmSubmitIdempotent(t *testing.T) {
	co, cl := testFarm(t, Config{})
	ctx := context.Background()

	jobs := []runspec.Named{protoJob("a", 1), protoJob("b", 2)}
	sub1, err := cl.Submit(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	reordered := []runspec.Named{jobs[1], jobs[0]}
	sub2, err := cl.Submit(ctx, reordered)
	if err != nil {
		t.Fatal(err)
	}
	if sub1.Sweep != sub2.Sweep {
		t.Fatalf("submission order must not change the sweep ID: %s vs %s", sub1.Sweep, sub2.Sweep)
	}

	// A different sweep sharing spec "a" under a different key: one job
	// table entry, three unique hashes total.
	overlap := []runspec.Named{{Key: "a-again", Spec: jobs[0].Spec}, protoJob("c", 3)}
	sub3, err := cl.Submit(ctx, overlap)
	if err != nil {
		t.Fatal(err)
	}
	if sub3.Sweep == sub1.Sweep {
		t.Fatal("different job sets must get different sweep IDs")
	}
	if s := co.Snapshot(); s.Jobs != 3 || s.Queued != 3 || s.Sweeps != 2 {
		t.Fatalf("snapshot: %+v", s)
	}
}

// TestFarmSubmitValidation: malformed batches are rejected with bad_request
// before touching any coordinator state.
func TestFarmSubmitValidation(t *testing.T) {
	co, cl := testFarm(t, Config{})
	ctx := context.Background()
	bad := [][]runspec.Named{
		{},
		{{Key: "", Spec: protoJob("x", 1).Spec}},
		{protoJob("dup", 1), protoJob("dup", 2)},
		{{Key: "x", Spec: runspec.Spec{Scheme: "no-such-scheme", Benchmark: "lbm", Cores: 1}}},
	}
	for i, jobs := range bad {
		if _, err := cl.Submit(ctx, jobs); errCode(t, err) != api.CodeBadRequest {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if s := co.Snapshot(); s.Jobs != 0 || s.Sweeps != 0 {
		t.Fatalf("rejected submissions must leave no state: %+v", s)
	}
}

// TestFarmCorpusShortCircuit: a spec whose hash is already in the corpus is
// satisfied at submit time and never dispatched.
func TestFarmCorpusShortCircuit(t *testing.T) {
	dir := t.TempDir()
	job := protoJob("warm", 1)
	hash, _ := job.Spec.Hash()
	if err := runner.NewCache(dir).Store(hash, job.Spec.Normalized(), &sim.Summary{Cycles: 99}); err != nil {
		t.Fatal(err)
	}

	_, cl := testFarm(t, Config{CacheDir: dir})
	ctx := context.Background()
	sub, err := cl.Submit(ctx, []runspec.Named{job, protoJob("cold", 2)})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cached != 1 || sub.Pending != 1 {
		t.Fatalf("submit response: %+v", sub)
	}
	lease, err := cl.Lease(ctx, "w", 0)
	if err != nil || lease == nil || lease.Key != "cold" {
		t.Fatalf("only the cold job may dispatch: %+v %v", lease, err)
	}
	if l2, _ := cl.Lease(ctx, "w", 0); l2 != nil {
		t.Fatalf("queue must be empty, got %+v", l2)
	}
	res, err := cl.Result(ctx, hash)
	if err != nil || res.Summary.Cycles != 99 {
		t.Fatalf("cached result: %+v %v", res, err)
	}
}

// TestFarmLongPollWake: a lease long-poll parked on an empty queue is woken
// by a submission instead of sleeping out its window.
func TestFarmLongPollWake(t *testing.T) {
	_, cl := testFarm(t, Config{})
	ctx := context.Background()

	type got struct {
		lease *api.Lease
		err   error
	}
	ch := make(chan got, 1)
	go func() {
		l, err := cl.Lease(ctx, "w", 10*time.Second)
		ch <- got{l, err}
	}()
	// Let the poller park, then submit.
	time.Sleep(50 * time.Millisecond)
	if _, err := cl.Submit(ctx, []runspec.Named{protoJob("a", 1)}); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-ch:
		if g.err != nil || g.lease == nil || g.lease.Key != "a" {
			t.Fatalf("woken lease: %+v %v", g.lease, g.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit must wake the parked long-poll well before its window")
	}
}

// TestFarmCollectorForwarding: coordinator-side lifecycle spans aggregate
// worker activity — including the expired count, which has no in-process
// analogue.
func TestFarmCollectorForwarding(t *testing.T) {
	clock := newFakeClock()
	col := sweep.New()
	co, cl := testFarm(t, Config{LeaseTTL: 30 * time.Second, Retries: 1, Clock: clock.Now, Collector: col})
	ctx := context.Background()

	if _, err := cl.Submit(ctx, []runspec.Named{protoJob("a", 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Lease(ctx, "w", 0); err != nil {
		t.Fatal(err)
	}
	clock.Advance(31 * time.Second)
	co.Tick()
	l2, err := cl.Lease(ctx, "w2", 0)
	if err != nil || l2 == nil {
		t.Fatalf("re-lease: %v %v", l2, err)
	}
	if _, err := cl.Complete(ctx, api.CompleteRequest{Lease: l2.ID, Outcome: api.OutcomeOK, Summary: &sim.Summary{}}); err != nil {
		t.Fatal(err)
	}
	p := col.Snapshot()
	if p.Jobs != 1 || p.Completed != 1 || p.Expired != 1 || p.Retries != 1 {
		t.Fatalf("collector progress: %+v", p)
	}
}

// TestFarmStatusSurface: the re-exported observability endpoints answer on
// the same mux as the protocol.
func TestFarmStatusSurface(t *testing.T) {
	col := sweep.New()
	co, err := NewCoordinator(Config{CacheDir: t.TempDir(), Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(Handler(co))
	defer srv.Close()

	for path, want := range map[string]string{
		"/":         "simfarmd",
		"/progress": `"jobs"`,
		"/metrics":  "farm_queued",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 1<<16)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body[:n]), want) {
			t.Fatalf("GET %s: HTTP %d, body %q must contain %q", path, resp.StatusCode, body[:n], want)
		}
	}
}
