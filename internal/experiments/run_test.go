package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/api"
	"repro/internal/runner"
	"repro/internal/runspec"
)

// declared counts the jobs the set's artifacts declare, duplicates
// included.
func (set *jobSet) declared() int {
	n := 0
	for _, a := range set.arts {
		n += len(a.jobs)
	}
	return n
}

// TestJobSetCounts builds the -all and -ablations job sets without
// simulating: every figure that reuses another's runs declares them again,
// and the set keeps one uniquely keyed job per distinct spec.
func TestJobSetCounts(t *testing.T) {
	cases := []struct {
		name               string
		o                  Options
		names              []string
		declared, distinct int
	}{
		{"all", Options{}, AllArtifacts, 999, 549},
		{"ablations", Options{Benchmarks: []string{"pr", "mcf", "lbm", "cc", "bwaves"}}, AblationArtifacts, 110, 55},
	}
	for _, c := range cases {
		set, err := declare(c.o, c.names)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		keys, hashes := map[string]bool{}, map[string]bool{}
		for _, j := range set.jobs {
			h, err := j.Spec.Hash()
			if err != nil {
				t.Fatal(err)
			}
			keys[j.Key], hashes[h] = true, true
		}
		if set.declared() != c.declared || len(set.jobs) != c.distinct {
			t.Errorf("%s: %d declared, %d jobs; want %d, %d", c.name, set.declared(), len(set.jobs), c.declared, c.distinct)
		}
		if len(keys) != len(set.jobs) || len(hashes) != len(set.jobs) {
			t.Errorf("%s: %d jobs with %d keys and %d hashes", c.name, len(set.jobs), len(keys), len(hashes))
		}
	}
}

// TestUnionNamesEachSpecOnce checks the job set's naming rules: a spec's
// first declaration names its job, a second key for the same spec reads
// the same run, and a key declared for two different specs is an error.
func TestUnionNamesEachSpecOnce(t *testing.T) {
	spec := func(seed int64) runspec.Spec {
		return runspec.Spec{Scheme: "itesp", Benchmark: "mcf", Cores: 4, Channels: 1, OpsPerCore: 100, Seed: seed}
	}
	set, err := union([]artifact{
		{jobs: []runspec.Named{{Key: "a", Spec: spec(1)}, {Key: "b", Spec: spec(2)}}},
		{jobs: []runspec.Named{{Key: "c", Spec: spec(1)}, {Key: "b", Spec: spec(2)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.jobs) != 2 || set.jobs[0].Key != "a" || set.jobs[1].Key != "b" {
		t.Fatalf("jobs = %+v, want a and b", set.jobs)
	}
	if set.job["c"] != "a" || set.job["b"] != "b" {
		t.Errorf("declared keys map to jobs %v; want c read from a", set.job)
	}
	_, err = union([]artifact{
		{jobs: []runspec.Named{{Key: "a", Spec: spec(1)}}},
		{jobs: []runspec.Named{{Key: "a", Spec: spec(2)}}},
	})
	if err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("err = %v, want a key conflict on a", err)
	}
}

// runTo runs the named artifacts writing to a buffer and returns the
// printed text and the -json values.
func runTo(t *testing.T, o Options, names ...string) (string, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	o.W = &buf
	js, err := Run(o, names...)
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), js
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunMatchesSeparateRuns renders several overlapping artifacts from
// one Run and compares the output, byte for byte, with each artifact run
// on its own; the shared runs are simulated once.
func TestRunMatchesSeparateRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	names := []string{"fig2", "fig3", "fig8", "fig9", "fig10", "fig12", "fig13",
		"ablation_itesp_leaf", "ablation_strict_verify"}
	o := tiny(t)
	o.Benchmarks = []string{"pr"}

	var parts []string
	wantJS := map[string]any{}
	var separate int64
	for _, n := range names {
		var st runner.Stats
		one := o
		one.RunnerStats = &st
		out, js := runTo(t, one, n)
		parts = append(parts, out)
		for k, v := range js {
			wantJS[k] = v
		}
		separate += st.Jobs
	}

	var st runner.Stats
	o.RunnerStats = &st
	out, js := runTo(t, o, names...)
	if want := strings.Join(parts, "\n"); out != want {
		t.Errorf("one Run printed:\n%s\nseparate runs printed:\n%s", out, want)
	}
	if got, want := mustJSON(t, js), mustJSON(t, wantJS); got != want {
		t.Errorf("-json values differ:\none Run:  %s\nseparate: %s", got, want)
	}
	set, err := declare(o, names)
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != int64(len(set.jobs)) || st.Jobs >= separate {
		t.Errorf("one Run ran %d jobs, want the %d distinct specs (separate runs: %d)", st.Jobs, len(set.jobs), separate)
	}
}

// TestMetricsFilePerDistinctSpec runs Figs 12 and 13, whose machines and
// cache budgets repeat scheme/benchmark pairs, and finds one metrics file
// per distinct spec: no run's artifact overwrites another's.
func TestMetricsFilePerDistinctSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, c := range []struct {
		name  string
		specs int
	}{{"fig12", 6}, {"fig13", 9}} {
		o := tiny(t)
		o.Benchmarks = []string{"mcf"}
		o.Obs.MetricsDir = t.TempDir()
		if _, err := Run(o, c.name); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(o.Obs.MetricsDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != c.specs {
			t.Errorf("%s: %d metrics files, want one per distinct spec (%d)", c.name, len(files), c.specs)
		}
	}
}

// TestFarmRunMatchesInProcess runs Figs 8 and 9 through an in-process
// coordinator and worker: the farm receives the job set as one sweep
// submission, and the printed figures and -json values equal the
// in-process run's.
func TestFarmRunMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tiny(t)
	o.Benchmarks = []string{"pr"}
	local, localJS := runTo(t, o, "fig8", "fig9")

	co, err := farm.NewCoordinator(farm.Config{CacheDir: t.TempDir(), LeaseTTL: 30 * time.Second, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	var submits atomic.Int32
	h := farm.Handler(co)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == api.PathSubmit {
			submits.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	ctx, stopWorker := context.WithCancel(context.Background())
	worked := make(chan error, 1)
	go func() {
		_, err := farm.Work(ctx, farm.WorkerOptions{Client: farm.NewClient(srv.URL), Name: "test-worker", PollWait: 200 * time.Millisecond})
		worked <- err
	}()

	o.FarmAddr = srv.URL
	remote, remoteJS := runTo(t, o, "fig8", "fig9")
	stopWorker()
	if err := <-worked; err != nil {
		t.Fatalf("worker: %v", err)
	}
	co.Shutdown()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	if remote != local {
		t.Errorf("farm run printed:\n%s\nin-process run printed:\n%s", remote, local)
	}
	if got, want := mustJSON(t, remoteJS), mustJSON(t, localJS); got != want {
		t.Errorf("-json values differ:\nfarm:       %s\nin-process: %s", got, want)
	}
	if st := co.Snapshot(); submits.Load() != 1 || st.Sweeps != 1 || st.Jobs != 9 {
		t.Errorf("farm saw %d submissions, %d sweeps and %d jobs; want 1 sweep of Fig 8's 9 runs of pr",
			submits.Load(), st.Sweeps, st.Jobs)
	}
}
