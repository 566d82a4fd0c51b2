package runner

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/runspec"
	"repro/internal/sim"
)

// tinyJob is a sub-second simulation suitable for cache plumbing tests.
func tinyJob(key, scheme string, seed int64) Job {
	return Job{Key: key, Spec: runspec.Spec{
		Scheme: scheme, Benchmark: "lbm", Cores: 1, OpsPerCore: 300, Seed: seed,
	}}
}

func tinyJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = tinyJob("job"+string(rune('a'+i)), "nonsecure", int64(i+1))
	}
	return jobs
}

func mustRun(t *testing.T, opts Options, jobs []Job) (map[string]*sim.Summary, Stats) {
	t.Helper()
	res, st, err := Run(context.Background(), opts, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// TestParallelDefaultsToEveryCPU checks that an unset Parallel runs one
// simulation per CPU.
func TestParallelDefaultsToEveryCPU(t *testing.T) {
	if got, want := (Options{}).parallel(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default parallelism %d, want GOMAXPROCS %d", got, want)
	}
}

func TestCacheMissThenHit(t *testing.T) {
	cache := NewCache(t.TempDir())
	jobs := tinyJobs(3)

	cold, st := mustRun(t, Options{Cache: cache, Parallel: 2}, jobs)
	if st.Simulated != 3 || st.CacheHits != 0 {
		t.Fatalf("cold run: %s", st)
	}
	if len(cold) != 3 {
		t.Fatalf("cold results = %d, want 3", len(cold))
	}
	for _, j := range jobs {
		h, err := j.Spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(cache.Path(h)); err != nil {
			t.Errorf("%s: no cache entry at %s", j.Key, cache.Path(h))
		}
	}

	warm, st := mustRun(t, Options{Cache: cache, Parallel: 2}, jobs)
	if st.Simulated != 0 || st.CacheHits != 3 {
		t.Fatalf("warm run should be all cache hits: %s", st)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("cached summaries differ from simulated ones")
	}
}

func TestCacheInvalidation(t *testing.T) {
	cache := NewCache(t.TempDir())
	jobs := tinyJobs(3)
	mustRun(t, Options{Cache: cache}, jobs)

	h, err := jobs[1].Spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one entry, version-skew another: both must become misses.
	if err := os.WriteFile(cache.Path(h), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	h2, _ := jobs[2].Spec.Hash()
	old, err := os.ReadFile(cache.Path(h2))
	if err != nil {
		t.Fatal(err)
	}
	skewed := strings.Replace(string(old), `"version": 1`, `"version": 999`, 1)
	if skewed == string(old) {
		t.Fatal("version field not found in cache entry")
	}
	if err := os.WriteFile(cache.Path(h2), []byte(skewed), 0o644); err != nil {
		t.Fatal(err)
	}

	_, st := mustRun(t, Options{Cache: cache}, jobs)
	if st.Simulated != 2 || st.CacheHits != 1 {
		t.Fatalf("invalidated entries should re-simulate: %s", st)
	}
	if st.CacheCorrupt != 1 {
		t.Errorf("the unparsable entry (but not the version skew) should count corrupt: %s", st)
	}
	if _, ok := cache.Load(h); !ok {
		t.Error("re-simulation should rewrite the corrupted entry")
	}
	// The corrupted file was quarantined as evidence, not overwritten; the
	// deliberate version skew is a plain miss and leaves no quarantine.
	if bad, err := os.ReadFile(cache.Path(h) + ".bad"); err != nil || string(bad) != "not json" {
		t.Errorf("corrupt entry should be quarantined to .bad with its original bytes: %v", err)
	}
	if _, err := os.Stat(cache.Path(h2) + ".bad"); !os.IsNotExist(err) {
		t.Errorf("version-skewed entry must not be quarantined: %v", err)
	}
}

// TestCacheLoadEntryClassification pins the three read outcomes apart:
// absent → ErrCacheMiss, damaged → ErrCacheCorrupt (quarantined),
// mis-addressed → ErrCacheCorrupt.
func TestCacheLoadEntryClassification(t *testing.T) {
	cache := NewCache(t.TempDir())
	jobs := tinyJobs(2)
	mustRun(t, Options{Cache: cache}, jobs)
	h0, _ := jobs[0].Spec.Hash()
	h1, _ := jobs[1].Spec.Hash()

	if _, err := cache.LoadEntry("0000deadbeef"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("absent entry: want ErrCacheMiss, got %v", err)
	}
	// Mis-addressed: entry h1's bytes stored under h0's name.
	data, err := os.ReadFile(cache.Path(h1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.Path(h0), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.LoadEntry(h0); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("mis-addressed entry: want ErrCacheCorrupt, got %v", err)
	}
	if _, err := os.Stat(cache.Path(h0) + ".bad"); err != nil {
		t.Fatalf("mis-addressed entry should be quarantined: %v", err)
	}
	// After quarantine the slot reads as a miss.
	if _, err := cache.LoadEntry(h0); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("quarantined slot should now miss, got %v", err)
	}
}

func TestResumeAfterInterrupt(t *testing.T) {
	jobs := tinyJobs(5)

	// Reference: one uninterrupted sweep into its own cache.
	full, _ := mustRun(t, Options{Cache: NewCache(t.TempDir())}, jobs)

	// Interrupted sweep: only the first two jobs completed before the
	// "crash"; re-invoking the whole sweep re-runs only the missing three.
	cache := NewCache(t.TempDir())
	mustRun(t, Options{Cache: cache}, jobs[:2])
	resumed, st := mustRun(t, Options{Cache: cache}, jobs)
	if st.Simulated != 3 || st.CacheHits != 2 {
		t.Fatalf("resume should re-run only missing hashes: %s", st)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Error("resumed sweep differs from the uninterrupted one")
	}
}

func TestNoCacheAlwaysSimulates(t *testing.T) {
	jobs := tinyJobs(2)
	_, st := mustRun(t, Options{}, jobs)
	if st.Simulated != 2 || st.CacheHits != 0 {
		t.Fatalf("cacheless run: %s", st)
	}
}

func TestErrorAggregationKeepGoing(t *testing.T) {
	jobs := []Job{
		tinyJob("good", "nonsecure", 1),
		{Key: "bad1", Spec: runspec.Spec{Scheme: "nope", Benchmark: "lbm", Cores: 1, OpsPerCore: 300}},
		{Key: "bad2", Spec: runspec.Spec{Scheme: "nonsecure", Benchmark: "missing", Cores: 1, OpsPerCore: 300}},
	}
	res, st, err := Run(context.Background(), Options{KeepGoing: true}, jobs)
	if err == nil {
		t.Fatal("want aggregated error")
	}
	for _, key := range []string{"bad1", "bad2"} {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("error should name %s: %v", key, err)
		}
	}
	if st.Failures != 2 || st.Simulated != 1 || st.Canceled != 0 {
		t.Fatalf("stats: %s", st)
	}
	if _, ok := res["good"]; !ok || len(res) != 1 {
		t.Fatalf("results = %v, want only the good job", res)
	}
}

func TestCancelOnFirstFailure(t *testing.T) {
	jobs := append([]Job{
		{Key: "bad", Spec: runspec.Spec{Scheme: "nope", Benchmark: "lbm", Cores: 1, OpsPerCore: 300}},
	}, tinyJobs(3)...)
	_, st, err := Run(context.Background(), Options{Parallel: 1}, jobs)
	if err == nil {
		t.Fatal("want error")
	}
	if st.Failures != 1 || st.Canceled != 3 {
		t.Fatalf("first failure should cancel the queued remainder: %s", st)
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Errorf("error should report canceled jobs: %v", err)
	}
}

func TestObserverOnlyOnMiss(t *testing.T) {
	cache := NewCache(t.TempDir())
	jobs := tinyJobs(2)
	var built, after int
	opts := Options{
		Cache:    cache,
		Parallel: 1,
		Observer: func(Job) *obs.Observer {
			built++
			return obs.New(obs.Config{Metrics: true})
		},
		AfterSim: func(_ Job, ob *obs.Observer, res *sim.Result) error {
			after++
			if ob == nil || res == nil {
				t.Error("AfterSim should see the observer and the live result")
			}
			return nil
		},
	}
	mustRun(t, opts, jobs)
	if built != 2 || after != 2 {
		t.Fatalf("cold run hooks: built=%d after=%d", built, after)
	}
	mustRun(t, opts, jobs)
	if built != 2 || after != 2 {
		t.Fatalf("cache hits must not build observers or run AfterSim: built=%d after=%d", built, after)
	}
}

func TestOnJobDoneSerializedCounts(t *testing.T) {
	jobs := tinyJobs(4)
	var calls []int
	opts := Options{
		Parallel: 2,
		OnJobDone: func(done, total int, j Job, cached bool, err error) {
			calls = append(calls, done)
			if total != 4 {
				t.Errorf("total = %d, want 4", total)
			}
		},
	}
	mustRun(t, opts, jobs)
	if len(calls) != 4 {
		t.Fatalf("OnJobDone calls = %d, want 4", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("done sequence %v not monotonic", calls)
		}
	}
}
