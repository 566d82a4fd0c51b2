package farm

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm/api"
	"repro/internal/runner"
	"repro/internal/runspec"
)

// completeAll leases and completes every queued job of co directly, with
// seedSummary, and returns the hashes it completed.
func completeAll(t *testing.T, co *Coordinator) []string {
	t.Helper()
	var hashes []string
	for {
		l, err := co.Lease(context.Background(), "w", 0)
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			return hashes
		}
		state, err := co.Complete(api.CompleteRequest{Lease: l.ID, Outcome: api.OutcomeOK, Summary: seedSummary(l.Spec)})
		if err != nil || state != api.StateDone {
			t.Fatalf("complete %s: %s %v", l.Key, state, err)
		}
		hashes = append(hashes, l.Hash)
	}
}

// waitCorpusWriter returns once co's corpus writer has emptied its queue.
func waitCorpusWriter(co *Coordinator) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for co.writing {
		co.idle.Wait()
	}
}

// TestCorpusWriterDrainsOnClose: Complete answers before the corpus
// writer stores the summary; after Close every done job's entry loads from
// a fresh cache, and a new coordinator on the same corpus answers the same
// submission as all cached.
func TestCorpusWriterDrainsOnClose(t *testing.T) {
	dir := t.TempDir()
	var jobs []runspec.Named
	for i := 1; i <= 16; i++ {
		jobs = append(jobs, protoJob(fmt.Sprintf("k%d", i), int64(i)))
	}
	co, err := NewCoordinator(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	hashes := completeAll(t, co)
	if len(hashes) != len(jobs) {
		t.Fatalf("completed %d jobs, want %d", len(hashes), len(jobs))
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	cache := runner.NewCache(dir)
	for i, h := range hashes {
		sum, err := cache.LoadEntry(h)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if want := seedSummary(jobs[i].Spec); sum.Cycles != want.Cycles {
			t.Fatalf("job %d: corpus cycles %d, want %d", i, sum.Cycles, want.Cycles)
		}
	}

	co2, err := NewCoordinator(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	sub, err := co2.Submit(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cached != len(jobs) {
		t.Fatalf("restarted coordinator: %+v, want all %d cached", sub, len(jobs))
	}
}

// TestCompleteAfterClose: a completion that arrives after Close neither
// panics nor loses its corpus entry.
func TestCompleteAfterClose(t *testing.T) {
	dir := t.TempDir()
	co, err := NewCoordinator(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Submit([]runspec.Named{protoJob("late", 1)}); err != nil {
		t.Fatal(err)
	}
	l, err := co.Lease(context.Background(), "w", 0)
	if err != nil || l == nil {
		t.Fatalf("lease: %+v %v", l, err)
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	state, err := co.Complete(api.CompleteRequest{Lease: l.ID, Outcome: api.OutcomeOK, Summary: seedSummary(l.Spec)})
	if err != nil || state != api.StateDone {
		t.Fatalf("complete after Close: %s %v", state, err)
	}
	waitCorpusWriter(co)
	if _, ok := runner.NewCache(dir).Load(l.Hash); !ok {
		t.Fatal("a completion after Close must still land in the corpus")
	}
}

// TestReplayRequeuesDoneWithoutEntry: a journal whose done record has no
// corpus entry behind it — the coordinator stopped between acknowledging
// the completion and storing it — replays the job to queued; it is leased
// once more, and its entry lands.
func TestReplayRequeuesDoneWithoutEntry(t *testing.T) {
	dir := t.TempDir()
	nj := protoJob("lost", 1)
	h, err := nj.Spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	j, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := nj.Spec
	for _, rec := range []JournalRecord{
		{Kind: "submit", Sweep: runspec.SweepID([]string{h}), Jobs: 1, Keys: []string{nj.Key}, Hashes: []string{h}},
		{Kind: "queued", Key: nj.Key, Hash: h, Spec: &sp},
		{Kind: "lease", Key: nj.Key, Hash: h, Lease: "l1-" + h[:8], Worker: "w", Attempts: 1},
		{Kind: "done", Key: nj.Key, Hash: h, Worker: "w", Attempts: 1},
	} {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	co, err := NewCoordinator(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s := co.Snapshot(); s.Jobs != 1 || s.Queued != 1 {
		t.Fatalf("replayed snapshot: %+v, want the job queued", s)
	}
	if hashes := completeAll(t, co); len(hashes) != 1 || hashes[0] != h {
		t.Fatalf("completed %v, want the lost job once", hashes)
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := runner.NewCache(dir).Load(h); !ok {
		t.Fatal("the re-run job's entry must land in the corpus")
	}
}

// TestCorpusStoreError: when the corpus write fails (a directory sits at
// the entry's path), the coordinator journals store_error, Close returns
// the error, and Result still serves the summary from memory.
func TestCorpusStoreError(t *testing.T) {
	dir := t.TempDir()
	co, err := NewCoordinator(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	nj := protoJob("blocked", 1)
	if _, err := co.Submit([]runspec.Named{nj}); err != nil {
		t.Fatal(err)
	}
	h, _ := nj.Spec.Hash()
	// After Submit, whose corpus lookup would quarantine the directory.
	if err := os.Mkdir(runner.NewCache(dir).Path(h), 0o755); err != nil {
		t.Fatal(err)
	}
	if hashes := completeAll(t, co); len(hashes) != 1 {
		t.Fatalf("completed %v", hashes)
	}
	// Read the journal before Close compacts the diagnostic record away.
	waitCorpusWriter(co)
	recs, err := ReadJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var storeErrors int
	for _, r := range recs {
		if r.Kind == "store_error" && r.Hash == h {
			storeErrors++
		}
	}
	if storeErrors != 1 {
		t.Fatalf("journal has %d store_error records for the job, want 1", storeErrors)
	}
	if err := co.Close(); err == nil {
		t.Fatal("Close must report the failed corpus write")
	}
	res, err := co.Result(h)
	if err != nil || res.Summary.Cycles != seedSummary(nj.Spec).Cycles {
		t.Fatalf("result from memory: %+v %v", res, err)
	}
}

// TestRunSweepTakesResultsFromRows: RunSweep makes no result request; each
// summary it returns arrives in a status row and equals what
// GET /v1/results/{hash} serves for its hash; some rows carry their
// summaries before the sweep is complete; failed rows are reported in
// first-seen key order with their errors.
func TestRunSweepTakesResultsFromRows(t *testing.T) {
	dir := t.TempDir()
	warm := protoJob("warm", 9)
	wh, _ := warm.Spec.Hash()
	if err := runner.NewCache(dir).Store(wh, warm.Spec.Normalized(), seedSummary(warm.Spec)); err != nil {
		t.Fatal(err)
	}
	co, err := NewCoordinator(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var results, early atomic.Int32 // early: summaries in answers of an incomplete sweep
	h := Handler(co)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, api.PathSweep) {
			if strings.HasPrefix(r.URL.Path, api.PathResult) {
				results.Add(1)
			}
			h.ServeHTTP(w, r)
			return
		}
		var st api.SweepStatus
		if err := json.Unmarshal(relay(h, w, r), &st); err == nil && !st.Complete {
			for _, j := range st.Jobs {
				if j.Summary != nil {
					early.Add(1)
				}
			}
		}
	}))
	t.Cleanup(func() {
		srv.Close()
		co.Close()
	})
	cl := NewClient(srv.URL)
	jobs := []runspec.Named{protoJob("a", 1), protoJob("zbroken", 2), protoJob("b", 3), warm, protoJob("broken", 4), protoJob("c", 5)}

	// The worker fails every job whose key names it broken.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wctx, stop := context.WithCancel(ctx)
	worker := make(chan struct{})
	go func() {
		defer close(worker)
		for {
			l, err := cl.Lease(wctx, "w", 20*time.Millisecond)
			if wctx.Err() != nil {
				return
			}
			if err != nil {
				t.Errorf("lease: %v", err)
				return
			}
			if l == nil {
				continue
			}
			req := api.CompleteRequest{Lease: l.ID, Outcome: api.OutcomeOK, Summary: seedSummary(l.Spec)}
			if strings.Contains(l.Key, "broken") {
				req = api.CompleteRequest{Lease: l.ID, Outcome: api.OutcomeFailed, Error: "injected failure of " + l.Key}
			}
			time.Sleep(10 * time.Millisecond)
			if _, err := cl.Complete(wctx, req); err != nil && wctx.Err() == nil {
				t.Errorf("complete: %v", err)
				return
			}
		}
	}()
	res, err := cl.RunSweep(ctx, jobs, nil)
	stop()
	<-worker

	want := "zbroken: injected failure of zbroken\nbroken: injected failure of broken"
	if err == nil || err.Error() != want {
		t.Fatalf("RunSweep error %q, want %q", err, want)
	}
	if n := results.Load(); n != 0 {
		t.Errorf("RunSweep made %d result requests, want none", n)
	}
	if len(res) != 4 {
		t.Errorf("%d results, want 4", len(res))
	}
	for _, j := range jobs {
		jh, _ := j.Spec.Hash()
		if strings.Contains(j.Key, "broken") {
			if res[j.Key] != nil {
				t.Errorf("%s: failed job has a summary", j.Key)
			}
			continue
		}
		served, err := cl.Result(ctx, jh)
		if err != nil {
			t.Fatalf("%s: %v", j.Key, err)
		}
		got, _ := json.Marshal(res[j.Key])
		wantSum, _ := json.Marshal(served.Summary)
		if res[j.Key] == nil || string(got) != string(wantSum) {
			t.Errorf("%s: summary %s, GET %s serves %s", j.Key, got, api.PathResult+jh, wantSum)
		}
	}
	if early.Load() == 0 {
		t.Error("no status answer carried a summary before the sweep completed")
	}
}

// TestRunSweepRowWithoutSummary: a done row that carries no summary (a
// coordinator predating JobStatus.Summary) is an error for its key, and
// RunSweep does not fall back to a result request.
func TestRunSweepRowWithoutSummary(t *testing.T) {
	co, err := NewCoordinator(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var results atomic.Int32
	h := Handler(co)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, api.PathSweep) || r.Method != http.MethodGet {
			if strings.HasPrefix(r.URL.Path, api.PathResult) {
				results.Add(1)
			}
			h.ServeHTTP(w, r)
			return
		}
		// Serve the status answer without its rows' summaries.
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var st api.SweepStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		for i := range st.Jobs {
			st.Jobs[i].Summary = nil
		}
		writeJSON(w, &st)
	}))
	t.Cleanup(func() {
		srv.Close()
		co.Close()
	})
	cl := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wctx, stop := context.WithCancel(ctx)
	worker := inlineWorker(wctx, t, cl, 0)
	res, err := cl.RunSweep(ctx, []runspec.Named{protoJob("a", 1), protoJob("b", 2)}, nil)
	stop()
	<-worker
	want := "a: done row carries no summary\nb: done row carries no summary"
	if err == nil || err.Error() != want {
		t.Fatalf("RunSweep error %q, want %q", err, want)
	}
	if len(res) != 0 {
		t.Errorf("%d results, want none", len(res))
	}
	if n := results.Load(); n != 0 {
		t.Errorf("RunSweep made %d result requests, want none", n)
	}
}

// TestSubmitRacesLeaseAndSweep: overlapping sweeps submitted at once, each
// twice, read the corpus outside the coordinator's lock while a worker
// leases and status readers poll; the coordinator still keeps one job per
// hash: corpus hits are cached, every other hash is leased exactly once,
// and each sweep completes with every row's summary.
func TestSubmitRacesLeaseAndSweep(t *testing.T) {
	dir := t.TempDir()
	cache := runner.NewCache(dir)
	var all []runspec.Named
	for i := 1; i <= 24; i++ {
		nj := protoJob(fmt.Sprintf("k%d", i), int64(i))
		all = append(all, nj)
		if i%3 == 0 {
			h, _ := nj.Spec.Hash()
			if err := cache.Store(h, nj.Spec.Normalized(), seedSummary(nj.Spec)); err != nil {
				t.Fatal(err)
			}
		}
	}
	co, err := NewCoordinator(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	sweeps := [][]runspec.Named{all[0:12], all[4:16], all[8:20], all[12:24], all}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wctx, stop := context.WithCancel(ctx)
	var leased sync.Map // hash → *atomic.Int32
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // the worker
		defer bg.Done()
		for wctx.Err() == nil {
			l, err := co.Lease(wctx, "w", 5*time.Millisecond)
			if err != nil || l == nil {
				continue
			}
			n, _ := leased.LoadOrStore(l.Hash, new(atomic.Int32))
			n.(*atomic.Int32).Add(1)
			if _, err := co.Complete(api.CompleteRequest{Lease: l.ID, Outcome: api.OutcomeOK, Summary: seedSummary(l.Spec)}); err != nil {
				t.Errorf("complete %s: %v", l.Key, err)
			}
		}
	}()
	ids := make([]string, len(sweeps))
	for i, jobs := range sweeps {
		h := make([]string, len(jobs))
		for k, j := range jobs {
			h[k], _ = j.Spec.Hash()
		}
		ids[i] = runspec.SweepID(h)
	}
	go func() { // a status reader; a sweep not yet submitted is not_found
		defer bg.Done()
		for wctx.Err() == nil {
			for _, id := range ids {
				_, _ = co.Sweep(wctx, id, sweepQuery{})
			}
		}
	}()
	var subs sync.WaitGroup
	for range 2 {
		for _, jobs := range sweeps {
			subs.Add(1)
			go func() {
				defer subs.Done()
				if _, err := co.Submit(jobs); err != nil {
					t.Errorf("submit: %v", err)
				}
			}()
		}
	}
	subs.Wait()

	for _, id := range ids {
		var q sweepQuery
		for {
			st, err := co.Sweep(ctx, id, q)
			if err != nil {
				t.Fatalf("sweep %s: %v", id, err)
			}
			if st.Complete {
				break
			}
			q = sweepQuery{delta: true, wait: time.Second}
			q.after, _, _ = co.parseCursor(st.Cursor)
		}
		st, err := co.Sweep(ctx, id, sweepQuery{})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range st.Jobs {
			if row.Summary == nil || row.Summary.Scheme != "nonsecure" {
				t.Errorf("sweep %.8s row %s: %s with summary %+v", id, row.Key, row.State, row.Summary)
			}
		}
	}
	stop()
	bg.Wait()

	if s := co.Snapshot(); s.Jobs != len(all) || s.Cached != len(all)/3 || s.Done != len(all)-len(all)/3 || s.Sweeps != len(sweeps) {
		t.Errorf("snapshot %+v, want %d jobs: %d cached, %d done; %d sweeps", s, len(all), len(all)/3, len(all)-len(all)/3, len(sweeps))
	}
	for i, nj := range all {
		h, _ := nj.Spec.Hash()
		var n int32
		if c, ok := leased.Load(h); ok {
			n = c.(*atomic.Int32).Load()
		}
		want := int32(1)
		if (i+1)%3 == 0 {
			want = 0 // in the corpus
		}
		if n != want {
			t.Errorf("%s leased %d times, want %d", nj.Key, n, want)
		}
	}
}
