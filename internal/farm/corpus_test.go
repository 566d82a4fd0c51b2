package farm

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
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

// TestRunSweepFetchesEachResultOnce: RunSweep fetches each done or cached
// row's result exactly once, never a failed row's, and some before the
// sweep is complete (as their rows land); it reports failed rows in
// first-seen key order with their errors.
func TestRunSweepFetchesEachResultOnce(t *testing.T) {
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
	var mu sync.Mutex
	fetches := map[string]int{}
	var early int // fetches while a job is still queued or leased
	h := Handler(co)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, api.PathResult) {
			s := co.Snapshot()
			mu.Lock()
			fetches[strings.TrimPrefix(r.URL.Path, api.PathResult)]++
			if s.Queued+s.Leased > 0 {
				early++
			}
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
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
	if len(res) != 4 {
		t.Errorf("%d results, want 4", len(res))
	}
	mu.Lock()
	defer mu.Unlock()
	for _, j := range jobs {
		jh, _ := j.Spec.Hash()
		want := 1
		if strings.Contains(j.Key, "broken") {
			want = 0
		} else if got, sum := res[j.Key], seedSummary(j.Spec); got == nil || got.Cycles != sum.Cycles {
			t.Errorf("%s: summary %+v, want cycles %d", j.Key, got, sum.Cycles)
		}
		if fetches[jh] != want {
			t.Errorf("%s: result fetched %d times, want %d", j.Key, fetches[jh], want)
		}
	}
	if early == 0 {
		t.Error("no result was fetched before the sweep completed")
	}
}
