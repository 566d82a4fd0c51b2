package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm/api"
	"repro/internal/obs/sweep"
	"repro/internal/runner"
	"repro/internal/runspec"
	"repro/internal/sim"
)

// seedSummary is the summary inlineWorker reports for a spec: its seed
// makes every job's result distinguishable.
func seedSummary(sp runspec.Spec) *sim.Summary {
	return &sim.Summary{Scheme: sp.Scheme, Cycles: uint64(sp.Seed) * 1000}
}

// inlineWorker leases and completes jobs with seedSummary, pausing pace
// before each completion, until ctx ends. The returned channel closes once
// it has stopped.
func inlineWorker(ctx context.Context, t *testing.T, cl *Client, pace time.Duration) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			lease, err := cl.Lease(ctx, "inline", 20*time.Millisecond)
			if ctx.Err() != nil {
				return
			}
			if err != nil {
				t.Errorf("lease: %v", err)
				return
			}
			if lease == nil {
				continue
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(pace):
			}
			req := api.CompleteRequest{Lease: lease.ID, Outcome: api.OutcomeOK, Summary: seedSummary(lease.Spec)}
			if _, err := cl.Complete(ctx, req); err != nil && ctx.Err() == nil {
				t.Errorf("complete: %v", err)
				return
			}
		}
	}()
	return done
}

// settle leases and completes n jobs with seedSummary.
func settle(t *testing.T, cl *Client, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		lease, err := cl.Lease(ctx, "w", 5*time.Second)
		if err != nil || lease == nil {
			t.Fatalf("lease %d: %+v %v", i, lease, err)
		}
		req := api.CompleteRequest{Lease: lease.ID, Outcome: api.OutcomeOK, Summary: seedSummary(lease.Spec)}
		if _, err := cl.Complete(ctx, req); err != nil {
			t.Fatalf("complete %d: %v", i, err)
		}
	}
}

// malformedCursors are since values a coordinator whose lifetime is life
// must reject as bad_request.
func malformedCursors(life string) []string {
	return []string{"nope", life, life + "-", life + "-x", life + "-1-2", "0123456789abcdeg-1", "abc-1", "-1"}
}

func rowKeys(st *api.SweepStatus) string {
	keys := make([]string, len(st.Jobs))
	for i, j := range st.Jobs {
		keys[i] = j.Key + ":" + j.State
	}
	return strings.Join(keys, ",")
}

// TestSweepStatusDeltas: a since cursor gets only the rows changed after
// it, with counts over the whole sweep; an empty cursor, or one from an
// earlier coordinator lifetime, gets the full table; a malformed cursor is
// bad_request.
func TestSweepStatusDeltas(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	co, err := NewCoordinator(Config{CacheDir: dir, LeaseTTL: 30 * time.Second, Retries: 1, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	srv, cl := serveFarm(t, co)
	ctx := context.Background()
	sub, err := cl.Submit(ctx, []runspec.Named{protoJob("a", 1), protoJob("b", 2), protoJob("c", 3)})
	if err != nil {
		t.Fatal(err)
	}

	full, err := cl.Sweep(ctx, sub.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if rowKeys(full) != "a:queued,b:queued,c:queued" || full.Queued != 3 || full.Cursor == "" {
		t.Fatalf("full table: %+v", full)
	}
	quiet, err := cl.sweepSince(ctx, sub.Sweep, full.Cursor, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(quiet.Jobs) != 0 || quiet.Queued != 3 || quiet.Complete || quiet.Cursor != full.Cursor {
		t.Fatalf("nothing changed, yet: %+v", quiet)
	}

	settle(t, cl, 1) // a: queued → leased → done
	lease, err := cl.Lease(ctx, "w", 0)
	if err != nil || lease == nil || lease.Key != "b" {
		t.Fatalf("lease b: %+v %v", lease, err)
	}
	d1, err := cl.sweepSince(ctx, sub.Sweep, full.Cursor, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rowKeys(d1) != "a:done,b:leased" || d1.Done != 1 || d1.Leased != 1 || d1.Queued != 1 {
		t.Fatalf("delta after a done, b leased: %+v", d1)
	}

	// The expiry path stamps its change too: b's lapsed lease requeues it.
	clock.Advance(31 * time.Second)
	d2, err := cl.sweepSince(ctx, sub.Sweep, d1.Cursor, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rowKeys(d2) != "b:queued" || d2.Jobs[0].Attempts != 1 || d2.Queued != 2 {
		t.Fatalf("delta after b's lease lapsed: %+v", d2)
	}

	again, err := cl.sweepSince(ctx, sub.Sweep, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rowKeys(again) != "a:done,b:queued,c:queued" {
		t.Fatalf("empty cursor must get the full table: %+v", again)
	}
	// An empty since query parameter is the same as none.
	resp, err := http.Get(srv.URL + api.PathSweep + sub.Sweep + "?" + api.QuerySince + "=")
	if err != nil {
		t.Fatal(err)
	}
	var raw api.SweepStatus
	err = json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if err != nil || len(raw.Jobs) != 3 {
		t.Fatalf("?since= must get the full table: %+v %v", raw, err)
	}

	life, _, _ := strings.Cut(full.Cursor, "-")
	for _, bad := range malformedCursors(life) {
		if _, err := cl.sweepSince(ctx, sub.Sweep, bad, 0); errCode(t, err) != api.CodeBadRequest {
			t.Errorf("cursor %q: want bad_request", bad)
		}
	}

	// A cursor minted by an earlier coordinator lifetime gets the full
	// table from the next one, whatever its version counter reads.
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	co2, err := NewCoordinator(Config{CacheDir: dir, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	_, cl2 := serveFarm(t, co2)
	restarted, err := cl2.sweepSince(ctx, sub.Sweep, d2.Cursor, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rowKeys(restarted) != "a:cached,b:queued,c:queued" || restarted.Cursor == d2.Cursor {
		t.Fatalf("cursor from an earlier lifetime must get the full table: %+v", restarted)
	}
}

// pollAnswer is one background sweep-status request's answer and when it
// arrived.
type pollAnswer struct {
	st  *api.SweepStatus
	err error
	at  time.Time
}

// longPoll sends one delta long-poll in the background.
func longPoll(ctx context.Context, cl *Client, id, cursor string, wait time.Duration) <-chan pollAnswer {
	ch := make(chan pollAnswer, 1)
	go func() {
		st, err := cl.sweepSince(ctx, id, cursor, wait)
		ch <- pollAnswer{st, err, time.Now()}
	}()
	return ch
}

// answered waits up to within for a long-poll's answer.
func answered(t *testing.T, ch <-chan pollAnswer, within time.Duration) pollAnswer {
	t.Helper()
	select {
	case a := <-ch:
		return a
	case <-time.After(within):
		t.Fatalf("long-poll still parked after %v", within)
		return pollAnswer{}
	}
}

// submitOne submits a one-job sweep and fetches its full status table.
func submitOne(t *testing.T, cl *Client, key string, seed int64) *api.SweepStatus {
	t.Helper()
	ctx := context.Background()
	sub, err := cl.Submit(ctx, []runspec.Named{protoJob(key, seed)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Sweep(ctx, sub.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSweepLongPoll: a delta request with wait_ms parks until a row of its
// own sweep changes, answers empty with a fresh cursor when the window
// lapses, answers at once when there is nothing to wait for, and is
// unparked by its request's cancellation (Shutdown: see
// TestChaosShutdownDrainsParkedSweep).
func TestSweepLongPoll(t *testing.T) {
	ctx := context.Background()

	t.Run("wakes on its own sweep only", func(t *testing.T) {
		_, cl := testFarm(t, Config{})
		a := submitOne(t, cl, "a", 1)
		ch := longPoll(ctx, cl, a.Sweep, a.Cursor, 10*time.Second)
		time.Sleep(50 * time.Millisecond) // let the poll park
		submitOne(t, cl, "b", 2)          // a change in another sweep
		select {
		case got := <-ch:
			t.Fatalf("a change in another sweep answered the poll: %+v %v", got.st, got.err)
		case <-time.After(100 * time.Millisecond):
		}
		changed := time.Now()
		if l, err := cl.Lease(ctx, "w", 0); err != nil || l == nil || l.Key != "a" {
			t.Fatalf("lease a: %+v %v", l, err)
		}
		got := answered(t, ch, 5*time.Second)
		if got.err != nil || rowKeys(got.st) != "a:leased" || got.st.Leased != 1 {
			t.Fatalf("woken poll: %+v %v", got.st, got.err)
		}
		if lag := got.at.Sub(changed); lag > time.Second {
			t.Errorf("the poll answered %v after its row changed", lag)
		}
	})

	t.Run("lapses with a fresh cursor", func(t *testing.T) {
		_, cl := testFarm(t, Config{})
		a := submitOne(t, cl, "a", 1)
		start := time.Now()
		ch := longPoll(ctx, cl, a.Sweep, a.Cursor, 300*time.Millisecond)
		time.Sleep(50 * time.Millisecond)
		submitOne(t, cl, "b", 2) // moves the version on, in another sweep
		got := answered(t, ch, 5*time.Second)
		if got.err != nil || len(got.st.Jobs) != 0 || got.st.Queued != 1 || got.st.Complete {
			t.Fatalf("lapsed poll: %+v %v", got.st, got.err)
		}
		if got.st.Cursor == a.Cursor {
			t.Errorf("a lapsed poll must mint a fresh cursor, got the one it was sent")
		}
		if waited := got.at.Sub(start); waited < 300*time.Millisecond {
			t.Errorf("the poll answered after %v, inside its 300ms window", waited)
		}
	})

	t.Run("answers at once", func(t *testing.T) {
		co, cl := testFarm(t, Config{})
		a := submitOne(t, cl, "a", 1)
		other := "0"
		if co.life[0] == '0' {
			other = "1"
		}
		foreign := other + co.life[1:] + "-1"
		settle(t, cl, 1)
		done, err := cl.Sweep(ctx, a.Sweep)
		if err != nil || !done.Complete {
			t.Fatalf("settled sweep: %+v %v", done, err)
		}
		for _, c := range []struct{ name, since, rows string }{
			{"empty cursor", "", "a:done"},
			{"foreign cursor", foreign, "a:done"},
			{"row changed since", a.Cursor, "a:done"},
			{"complete sweep", done.Cursor, ""},
		} {
			start := time.Now()
			st, err := cl.sweepSince(ctx, a.Sweep, c.since, 10*time.Second)
			if err != nil || rowKeys(st) != c.rows || !st.Complete {
				t.Errorf("%s: %+v %v", c.name, st, err)
			}
			if took := time.Since(start); took > 2*time.Second {
				t.Errorf("%s: answered after %v, want at once", c.name, took)
			}
		}
	})

	t.Run("malformed wait_ms", func(t *testing.T) {
		_, cl := testFarm(t, Config{})
		a := submitOne(t, cl, "a", 1)
		for _, bad := range []string{"soon", "1.5", "1e3", "0x10", " 5", "99999999999999999999"} {
			path := api.PathSweep + a.Sweep + "?" + url.Values{api.QuerySince: {a.Cursor}, api.QueryWait: {bad}}.Encode()
			err := cl.do(ctx, http.MethodGet, path, nil, &api.SweepStatus{})
			if errCode(t, err) != api.CodeBadRequest {
				t.Errorf("wait_ms %q: want bad_request, got %v", bad, err)
			}
		}
	})

	t.Run("cancel unparks", func(t *testing.T) {
		co, cl := testFarm(t, Config{})
		a := submitOne(t, cl, "a", 1)
		q, err := co.parseSweepQuery(a.Cursor, "25000")
		if err != nil || !q.delta || q.wait != 25*time.Second {
			t.Fatalf("query: %+v %v", q, err)
		}
		cctx, cancel := context.WithCancel(ctx)
		ch := make(chan error, 1)
		go func() {
			_, err := co.Sweep(cctx, a.Sweep, q)
			ch <- err
		}()
		time.Sleep(50 * time.Millisecond)
		cancel()
		select {
		case err := <-ch:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled poll: %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelling the request must unpark the poll")
		}
	})
}

// FuzzSweepQuery: every since/wait_ms pair parses to a wait in
// [0, maxPollWait] or is rejected as bad_request, and every cursor the
// coordinator mints parses back to its own version as a same-lifetime
// delta.
func FuzzSweepQuery(f *testing.F) {
	c := &Coordinator{life: "0123456789abcdef"}
	for _, bad := range malformedCursors(c.life) {
		f.Add(bad, "", uint64(1))
	}
	f.Add("", "25000", uint64(0))
	f.Add(c.life+"-7", "-1", uint64(7))
	f.Add("fedcba9876543210-3", "30001", uint64(math.MaxUint64))
	f.Add("", "9223372036854775807", uint64(2))
	f.Add("", "1.5", uint64(3))
	f.Fuzz(func(t *testing.T, since, waitMS string, ver uint64) {
		q, err := c.parseSweepQuery(since, waitMS)
		if err != nil {
			var ae *api.Error
			if !errors.As(err, &ae) || ae.Code != api.CodeBadRequest {
				t.Fatalf("since %q wait_ms %q: %v, want bad_request", since, waitMS, err)
			}
		} else if q.wait < 0 || q.wait > maxPollWait {
			t.Fatalf("since %q wait_ms %q: wait %v outside [0, %v]", since, waitMS, q.wait, maxPollWait)
		}
		minted := c.cursor(ver)
		if q, err := c.parseSweepQuery(minted, ""); err != nil || !q.delta || q.after != ver {
			t.Fatalf("minted cursor %q parsed to %+v %v", minted, q, err)
		}
	})
}

// TestSweepSameSpecTwoKeys: one submission carrying one spec under two
// keys makes one job and two rows; RunSweep returns the same summary under
// both keys; and the first submission's spec stays the job's spec when the
// batch is resubmitted in reverse order.
func TestSweepSameSpecTwoKeys(t *testing.T) {
	x := protoJob("x", 1).Spec
	y := x
	y.MetaKBPerCore = 16 // the default spelled out: another spec, same hash
	hx, _ := x.Hash()
	hy, _ := y.Hash()
	if hx != hy {
		t.Fatal("x and y must hash alike")
	}
	forward := []runspec.Named{{Key: "a", Spec: x}, {Key: "b", Spec: y}}
	reverse := []runspec.Named{forward[1], forward[0]}
	ctx := context.Background()

	co, cl := testFarm(t, Config{})
	sub, err := cl.Submit(ctx, forward)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Jobs != 2 || sub.Pending != 2 || co.Snapshot().Jobs != 1 {
		t.Fatalf("submit: %+v, census %+v", sub, co.Snapshot())
	}
	st, err := cl.Sweep(ctx, sub.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if rowKeys(st) != "a:queued,b:queued" || st.Jobs[0].Hash != hx || st.Jobs[1].Hash != hx {
		t.Fatalf("rows: %+v", st.Jobs)
	}
	sub2, err := cl.Submit(ctx, reverse)
	if err != nil {
		t.Fatal(err)
	}
	if sub2.Sweep != sub.Sweep || co.Snapshot().Jobs != 1 {
		t.Fatalf("reverse resubmission: %+v, census %+v", sub2, co.Snapshot())
	}
	lease, err := cl.Lease(ctx, "w", 0)
	if err != nil || lease == nil {
		t.Fatalf("lease: %+v %v", lease, err)
	}
	if lease.Key != "a" || lease.Spec.MetaKBPerCore != 0 {
		t.Fatalf("the first submission's job a supplies the spec: %+v", lease)
	}
	if _, err := cl.Complete(ctx, api.CompleteRequest{Lease: lease.ID, Outcome: api.OutcomeOK, Summary: seedSummary(lease.Spec)}); err != nil {
		t.Fatal(err)
	}
	res, err := cl.RunSweep(ctx, reverse, nil)
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := json.Marshal(res["a"])
	rb, _ := json.Marshal(res["b"])
	if len(res) != 2 || res["a"] == nil || string(ra) != string(rb) {
		t.Fatalf("both keys must carry the one job's summary: %s vs %s", ra, rb)
	}

	// On a fresh coordinator the reversed batch's first job supplies it.
	_, cl2 := testFarm(t, Config{})
	if _, err := cl2.Submit(ctx, reverse); err != nil {
		t.Fatal(err)
	}
	if lease, err := cl2.Lease(ctx, "w", 0); err != nil || lease == nil || lease.Key != "b" || lease.Spec.MetaKBPerCore != 16 {
		t.Fatalf("fresh reverse submission: %+v %v", lease, err)
	}
}

type doneReport struct {
	done, total int
	key         string
	cached      bool
}

// checkReports asserts onDone fired once per key of jobs, counting done up
// from 1 with total equal to the sweep size.
func checkReports(t *testing.T, jobs []runspec.Named, reports []doneReport) {
	t.Helper()
	seen := map[string]int{}
	for i, r := range reports {
		if r.done != i+1 || r.total != len(jobs) {
			t.Errorf("report %d: %+v, want done %d of %d", i, r, i+1, len(jobs))
		}
		seen[r.key]++
	}
	for _, j := range jobs {
		if seen[j.Key] != 1 {
			t.Errorf("key %s reported %d times, want once", j.Key, seen[j.Key])
		}
	}
	if len(reports) != len(jobs) {
		t.Errorf("%d reports for %d keys", len(reports), len(jobs))
	}
}

// TestRunSweepOnDoneOncePerKey: with status served as deltas, onDone still
// fires exactly once per key — cached, simulated and duplicate-spec keys
// alike — with total equal to the sweep size.
func TestRunSweepOnDoneOncePerKey(t *testing.T) {
	dir := t.TempDir()
	warm := protoJob("warm", 9)
	h, _ := warm.Spec.Hash()
	if err := runner.NewCache(dir).Store(h, warm.Spec.Normalized(), seedSummary(warm.Spec)); err != nil {
		t.Fatal(err)
	}
	_, cl := testFarm(t, Config{CacheDir: dir})
	jobs := []runspec.Named{protoJob("a", 1), protoJob("b", 2), protoJob("c", 3), protoJob("d", 4), warm,
		{Key: "a-again", Spec: protoJob("a", 1).Spec}}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wctx, stop := context.WithCancel(ctx)
	worker := inlineWorker(wctx, t, cl, 10*time.Millisecond)
	var reports []doneReport
	res, err := cl.RunSweep(ctx, jobs, func(done, total int, key string, cached bool) {
		reports = append(reports, doneReport{done, total, key, cached})
	})
	stop()
	<-worker
	if err != nil {
		t.Fatal(err)
	}
	checkReports(t, jobs, reports)
	for _, r := range reports {
		if r.cached != (r.key == "warm") {
			t.Errorf("%s reported cached=%v", r.key, r.cached)
		}
	}
	for _, j := range jobs {
		if got, want := res[j.Key], seedSummary(j.Spec); got == nil || got.Cycles != want.Cycles {
			t.Errorf("%s: summary %+v, want cycles %d", j.Key, got, want.Cycles)
		}
	}
}

// TestRunSweepLongPolls: RunSweep follows its sweep with status
// long-polls alone: no /events subscription, one full fetch, then at most
// one request per state change after submission (+1 slack), and it
// notices the last change long before a poll window lapses.
func TestRunSweepLongPolls(t *testing.T) {
	co, err := NewCoordinator(Config{CacheDir: t.TempDir(), Collector: sweep.New()})
	if err != nil {
		t.Fatal(err)
	}
	var status, events atomic.Int32
	h := Handler(co)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/events":
			events.Add(1)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, api.PathSweep):
			status.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		co.Close()
	})
	cl := NewClient(srv.URL)
	var jobs []runspec.Named
	for i := 1; i <= 4; i++ {
		jobs = append(jobs, protoJob(fmt.Sprintf("k%d", i), int64(i)))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wctx, stop := context.WithCancel(ctx)
	worker := inlineWorker(wctx, t, cl, 20*time.Millisecond)
	start := time.Now()
	res, err := cl.RunSweep(ctx, jobs, nil)
	elapsed := time.Since(start)
	stop()
	<-worker
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if got, want := res[j.Key], seedSummary(j.Spec); got == nil || got.Cycles != want.Cycles {
			t.Errorf("%s: summary %+v, want cycles %d", j.Key, got, want.Cycles)
		}
	}
	co.mu.Lock()
	changes := int(co.ver) - len(jobs) // less submission's queued stamps
	co.mu.Unlock()
	if n := events.Load(); n != 0 {
		t.Errorf("RunSweep sent %d /events requests, want none", n)
	}
	if n := int(status.Load()); n > changes+2 {
		t.Errorf("RunSweep sent %d status requests for %d state changes, want at most %d", n, changes, changes+2)
	}
	if elapsed > maxPollWait/3 {
		t.Errorf("RunSweep took %v: the last change did not answer its long-poll", elapsed)
	}
}

// swapHandler serves through whichever handler was set last, so one
// httptest server can front successive coordinator lifetimes.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, r)
}

// TestRunSweepSurvivesRestart: a coordinator restarted on the same corpus
// mid-sweep, behind the same address, answers RunSweep's stale cursor with
// the full table, so RunSweep returns every summary and reports each key
// exactly once.
func TestRunSweepSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	co1, err := NewCoordinator(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sw := &swapHandler{h: Handler(co1)}
	srv := httptest.NewServer(sw)
	defer srv.Close()
	cl := NewClientOpts(srv.URL, ClientOptions{
		Retry: RetryPolicy{Attempts: 20, Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
	})
	var jobs []runspec.Named
	for i := 1; i <= 8; i++ {
		jobs = append(jobs, protoJob(fmt.Sprintf("k%d", i), int64(i)))
	}

	const before = 3 // jobs settled by the first lifetime
	var reports []doneReport
	reportedBefore := make(chan struct{})
	type outcome struct {
		res map[string]*sim.Summary
		err error
	}
	out := make(chan outcome, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		res, err := cl.RunSweep(ctx, jobs, func(done, total int, key string, cached bool) {
			reports = append(reports, doneReport{done, total, key, cached})
			if done == before {
				close(reportedBefore)
			}
		})
		out <- outcome{res, err}
	}()

	// Settle a few jobs on the first lifetime (settle's long-poll waits
	// for RunSweep's submission) and wait until RunSweep has seen them, so
	// it holds a cursor that lifetime minted.
	settle(t, cl, before)
	select {
	case <-reportedBefore:
	case <-ctx.Done():
		t.Fatal("RunSweep never reported the first lifetime's jobs")
	}

	// Restart: requests during the switch get 503 (transient, retried).
	sw.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "restarting", http.StatusServiceUnavailable)
	}))
	co1.Shutdown()
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}
	co2, err := NewCoordinator(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	var stale atomic.Bool
	h2 := Handler(co2)
	sw.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Query().Get(api.QuerySince), co1.life+"-") {
			stale.Store(true)
		}
		h2.ServeHTTP(w, r)
	}))
	settle(t, cl, len(jobs)-before)

	var o outcome
	select {
	case o = <-out:
	case <-ctx.Done():
		t.Fatal("RunSweep did not finish after the restart")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	if !stale.Load() {
		t.Fatal("RunSweep never presented its first-lifetime cursor to the restarted coordinator")
	}
	checkReports(t, jobs, reports)
	for _, j := range jobs {
		if got, want := o.res[j.Key], seedSummary(j.Spec); got == nil || got.Cycles != want.Cycles {
			t.Errorf("%s: summary %+v, want cycles %d", j.Key, got, want.Cycles)
		}
	}
}

// TestFarmSweepIDIsRunnerSweepHash: a sweep submitted to the farm and the
// same jobs run in-process share one identity, which also names the
// runner's sweep journal.
func TestFarmSweepIDIsRunnerSweepHash(t *testing.T) {
	_, cl := testFarm(t, Config{})
	jobs := []runspec.Named{protoJob("b", 2), protoJob("a", 1), protoJob("c", 3)}
	sub, err := cl.Submit(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	rjobs := make([]runner.Job, len(jobs))
	for i, j := range jobs {
		rjobs[i] = runner.Job{Key: j.Key, Spec: j.Spec}
	}
	if want := runner.SweepHash(rjobs); sub.Sweep != want {
		t.Fatalf("farm sweep ID %s, runner.SweepHash %s", sub.Sweep, want)
	}
	if got := filepath.Base(runner.TelemetryPath("corpus", rjobs)); got != "sweep-"+sub.Sweep+".telemetry.jsonl" {
		t.Fatalf("sweep journal %s is not named by the sweep ID", got)
	}
}

// TestResultRacesComplete: Result reads jobs while another goroutine
// completes them; under -race this catches a read of job fields outside
// the coordinator's lock.
func TestResultRacesComplete(t *testing.T) {
	co, _ := testFarm(t, Config{})
	ctx := context.Background()
	var jobs []runspec.Named
	for i := 0; i < 32; i++ {
		jobs = append(jobs, protoJob(fmt.Sprintf("j%d", i), int64(i)))
	}
	if _, err := co.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	var leases []*api.Lease
	for range jobs {
		l, err := co.Lease(ctx, "w", 0)
		if err != nil || l == nil {
			t.Fatalf("lease: %+v %v", l, err)
		}
		leases = append(leases, l)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, l := range leases {
			if _, err := co.Complete(api.CompleteRequest{Lease: l.ID, Outcome: api.OutcomeOK, Summary: seedSummary(l.Spec)}); err != nil {
				t.Errorf("complete: %v", err)
			}
		}
	}()
	for _, l := range leases {
		for {
			res, err := co.Result(l.Hash)
			if err == nil {
				if res.Summary.Cycles != seedSummary(l.Spec).Cycles {
					t.Fatalf("%s: result %+v", l.Key, res.Summary)
				}
				break
			}
			if code := errCode(t, err); code != api.CodeNotReady {
				t.Fatalf("%s: %v", l.Key, err)
			}
		}
	}
	wg.Wait()
}
