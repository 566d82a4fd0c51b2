package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/farm/api"
	"repro/internal/runner"
	"repro/internal/runspec"
)

// e2eJobs is a miniature sweep of real simulations, small enough to run in
// a unit test but crossing three schemes like a real figure sweep would.
func e2eJobs() []runspec.Named {
	specs := []struct {
		key, scheme, bench string
	}{
		{"nonsecure/lbm", "nonsecure", "lbm"},
		{"itesp/mcf", "itesp", "mcf"},
		{"vault/lbm", "vault", "lbm"},
	}
	jobs := make([]runspec.Named, len(specs))
	for i, s := range specs {
		jobs[i] = runspec.Named{Key: s.key, Spec: runspec.Spec{
			Scheme: s.scheme, Benchmark: s.bench, Cores: 1, OpsPerCore: 2000, Seed: 7,
		}}
	}
	return jobs
}

// TestE2EFarmMatchesInProcess is the farm's acceptance test: the same sweep
// run through coordinator + worker + HTTP round trips produces summaries
// byte-identical to an in-process runner.Run, and a second coordinator over
// the same corpus serves the whole sweep from cache without any worker.
func TestE2EFarmMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	jobs := e2eJobs()
	ctx := context.Background()

	// Ground truth: the in-process path.
	runnerJobs := make([]runner.Job, len(jobs))
	for i, j := range jobs {
		runnerJobs[i] = runner.Job{Key: j.Key, Spec: j.Spec}
	}
	direct, _, err := runner.Run(ctx, runner.Options{Parallel: 2}, runnerJobs)
	if err != nil {
		t.Fatal(err)
	}

	// The farm path: coordinator + one pull worker, full wire protocol.
	corpus := t.TempDir()
	co, err := NewCoordinator(Config{CacheDir: corpus, LeaseTTL: 30 * time.Second, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(co))
	defer srv.Close()
	cl := NewClient(srv.URL)

	workerCtx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	workerCache := t.TempDir()
	workerDone := make(chan struct{})
	var executed int
	var workErr error
	go func() {
		defer close(workerDone)
		executed, workErr = Work(workerCtx, WorkerOptions{
			Client:   NewClient(srv.URL),
			Name:     "e2e-worker",
			CacheDir: workerCache,
			PollWait: 200 * time.Millisecond,
			Logf:     t.Logf,
		})
	}()

	farmRes, err := cl.RunSweep(ctx, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	stopWorker()
	<-workerDone
	if workErr != nil {
		t.Fatalf("worker: %v", workErr)
	}
	if executed != len(jobs) {
		t.Fatalf("worker executed %d jobs, want %d", executed, len(jobs))
	}

	// Byte-identical summaries, job by job.
	for _, j := range jobs {
		want, err := json.Marshal(direct[j.Key])
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(farmRes[j.Key])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: farm summary differs from in-process run:\nfarm:   %s\ndirect: %s", j.Key, got, want)
		}
	}

	// The worker's local cache converged with the corpus: every executed
	// hash is resolvable on both sides. Complete answers before the corpus
	// writer stores the entry, so Close (which drains the writer) comes
	// first.
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	local := runner.NewCache(workerCache)
	shared := runner.NewCache(corpus)
	for _, j := range jobs {
		h, _ := j.Spec.Hash()
		if _, ok := local.Load(h); !ok {
			t.Fatalf("%s: missing from the worker's local cache", j.Key)
		}
		if _, ok := shared.Load(h); !ok {
			t.Fatalf("%s: missing from the coordinator corpus", j.Key)
		}
	}

	// A fresh coordinator lifetime over the same corpus: the identical
	// sweep is fully cached at submit time — no worker, no dispatch.
	co2, err := NewCoordinator(Config{CacheDir: corpus})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(Handler(co2))
	defer srv2.Close()
	defer co2.Close()
	cl2 := NewClient(srv2.URL)
	sub, err := cl2.Submit(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cached != len(jobs) || sub.Pending != 0 {
		t.Fatalf("corpus re-submit: %+v", sub)
	}
	cachedRes, err := cl2.RunSweep(ctx, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		want, _ := json.Marshal(direct[j.Key])
		got, _ := json.Marshal(cachedRes[j.Key])
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: corpus-served summary differs from in-process run", j.Key)
		}
	}
}

// TestE2EWorkerCountInvariantHash: a spec carrying the deprecated, ignored
// TickWorkers field hashes identically to the same spec without it, so farm
// results are shared across workers and old specs — the cache-key
// invariance the protocol depends on.
func TestE2EWorkerCountInvariantHash(t *testing.T) {
	base := runspec.Spec{Scheme: "itesp", Benchmark: "mcf", Cores: 2, Channels: 2, OpsPerCore: 2000}
	tuned := base
	tuned.TickWorkers = 4
	h1, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := tuned.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("TickWorkers must not enter the content hash: %s vs %s", h1, h2)
	}
}

// TestDeprecatedTickWorkersStillLoads: old batches may carry the
// deprecated "tick_workers" field. Both ReadBatch and POST /v1/sweeps
// reject unknown fields, so the field is still decoded (and ignored): such
// a batch loads and names the same runs and sweep as the batch without it.
func TestDeprecatedTickWorkersStillLoads(t *testing.T) {
	const spec = `"scheme": "nonsecure", "benchmark": "lbm", "cores": 1, "ops_per_core": 300, "seed": 1`
	old := `{"jobs": [{"key": "a", "spec": {` + spec + `, "tick_workers": 4}}]}`
	cur := `{"jobs": [{"key": "a", "spec": {` + spec + `}}]}`

	hashOf := func(batch string) string {
		t.Helper()
		jobs, err := runspec.ReadBatch(strings.NewReader(batch))
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		h, err := jobs[0].Spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if ho, hc := hashOf(old), hashOf(cur); ho != hc {
		t.Fatalf("tick_workers changed the spec hash: %s vs %s", ho, hc)
	}

	co, err := NewCoordinator(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(co))
	defer func() {
		srv.Close()
		co.Close()
	}()
	submit := func(batch string) api.SubmitResponse {
		t.Helper()
		resp, err := http.Post(srv.URL+api.PathSubmit, "application/json", strings.NewReader(batch))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sub api.SubmitResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", api.PathSubmit, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		return sub
	}
	if so, sc := submit(old), submit(cur); so.Sweep != sc.Sweep {
		t.Fatalf("tick_workers changed the sweep ID: %s vs %s", so.Sweep, sc.Sweep)
	}
	if s := co.Snapshot(); s.Jobs != 1 || s.Sweeps != 1 {
		t.Fatalf("both submissions must name one job and one sweep: %+v", s)
	}
}
