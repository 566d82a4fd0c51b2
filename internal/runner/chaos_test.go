package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/sweep"
	"repro/internal/runspec"
	"repro/internal/sim"
)

// stubSim swaps the simulation entry point for the test's lifetime. The
// stubs key off cfg.Seed, which survives Spec→SimConfig resolution, so a
// single stub can give each job of a batch its own failure mode.
func stubSim(t *testing.T, fn func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error)) {
	t.Helper()
	old := runSim
	runSim = fn
	t.Cleanup(func() { runSim = old })
}

// stubJob builds a valid spec whose seed selects the stub's behavior.
func stubJob(key string, seed int64) Job {
	return Job{Key: key, Spec: runspec.Spec{
		Scheme: "nonsecure", Benchmark: "lbm", Cores: 1, OpsPerCore: 300, Seed: seed,
	}}
}

func stubOK(cfg sim.Config) (*sim.Result, *sim.Summary, error) {
	return &sim.Result{}, &sim.Summary{Scheme: "stub", Cycles: uint64(cfg.Seed)}, nil
}

// stubHang mimics a wedged sim.RunContext: it blocks until the job context
// fires and returns the canceled-wrapped error the real simulator would.
func stubHang(ctx context.Context) (*sim.Result, *sim.Summary, error) {
	<-ctx.Done()
	return nil, nil, fmt.Errorf("%w: %w", sim.ErrCanceled, ctx.Err())
}

const (
	seedOK = iota + 100
	seedPanic
	seedHang
	seedDeadlock
	seedFlaky
)

// TestChaosPanicAndHangIsolated is the acceptance scenario: a sweep with
// one panicking job and one hanging job completes every other job, names
// both failures in the joined error, and counts Panics=1, TimedOut=1.
func TestChaosPanicAndHangIsolated(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		switch cfg.Seed {
		case seedPanic:
			panic("injected chaos panic")
		case seedHang:
			return stubHang(ctx)
		default:
			return stubOK(cfg)
		}
	})
	jobs := []Job{
		stubJob("ok1", seedOK), stubJob("boom", seedPanic), stubJob("ok2", seedOK+10),
		stubJob("wedge", seedHang), stubJob("ok3", seedOK+20), stubJob("ok4", seedOK+30),
	}
	res, st, err := Run(context.Background(), Options{
		Parallel: 2, KeepGoing: true, JobTimeout: 50 * time.Millisecond,
	}, jobs)
	if err == nil {
		t.Fatal("want joined error naming both failures")
	}
	for _, key := range []string{"boom", "wedge"} {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("error should name %s: %v", key, err)
		}
	}
	if len(res) != 4 {
		t.Fatalf("all healthy jobs must complete: got %d results", len(res))
	}
	if st.Panics != 1 || st.TimedOut != 1 || st.Failures != 2 || st.Simulated != 4 || st.Canceled != 0 {
		t.Fatalf("stats: %s", st)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("joined error should carry the PanicError: %v", err)
	}
	if !strings.Contains(string(pe.Stack), "chaos_test") {
		t.Errorf("panic error must carry the panic-site stack, got:\n%s", pe.Stack)
	}
	if !errors.Is(err, ErrJobTimeout) {
		t.Fatalf("joined error should carry the job timeout: %v", err)
	}
}

// TestChaosPanicCancelsBatchByDefault: without KeepGoing a panic, like any
// failure, cancels the queued remainder — but never the process.
func TestChaosPanicCancelsBatchByDefault(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		if cfg.Seed == seedPanic {
			panic("early chaos panic")
		}
		return stubOK(cfg)
	})
	jobs := []Job{stubJob("boom", seedPanic), stubJob("a", seedOK), stubJob("b", seedOK+1), stubJob("c", seedOK+2)}
	_, st, err := Run(context.Background(), Options{Parallel: 1}, jobs)
	if err == nil {
		t.Fatal("want error")
	}
	if st.Panics != 1 || st.Failures != 1 || st.Canceled != 3 {
		t.Fatalf("stats: %s", st)
	}
}

// TestChaosRetry: a flaky job that panics twice then succeeds is retried
// deterministically to success; a deterministic watchdog trip is never
// retried even with retries budgeted.
func TestChaosRetry(t *testing.T) {
	var mu sync.Mutex
	attempts := map[int64]int{}
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		mu.Lock()
		attempts[cfg.Seed]++
		n := attempts[cfg.Seed]
		mu.Unlock()
		switch cfg.Seed {
		case seedFlaky:
			if n <= 2 {
				panic(fmt.Sprintf("flaky attempt %d", n))
			}
			return stubOK(cfg)
		case seedDeadlock:
			return nil, nil, fmt.Errorf("wedged: %w", sim.ErrDeadlock)
		default:
			return stubOK(cfg)
		}
	})
	jobs := []Job{stubJob("flaky", seedFlaky), stubJob("dead", seedDeadlock)}
	res, st, err := Run(context.Background(), Options{Parallel: 1, KeepGoing: true, Retries: 3}, jobs)
	if _, ok := res["flaky"]; !ok {
		t.Fatalf("flaky job must succeed after retries; err=%v", err)
	}
	if st.Retried != 2 || st.Panics != 2 || st.Simulated != 1 {
		t.Fatalf("stats: %s", st)
	}
	if st.Failures != 1 || !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("deadlock must surface typed through the joined error: %v (stats %s)", err, st)
	}
	if attempts[seedDeadlock] != 1 {
		t.Fatalf("a deterministic deadlock must not be retried: %d attempts", attempts[seedDeadlock])
	}
}

// TestChaosTimeoutRetried: job timeouts are a retryable class — a job that
// hangs once and then completes survives with Retries=1.
func TestChaosTimeoutRetried(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n == 1 {
			return stubHang(ctx)
		}
		return stubOK(cfg)
	})
	res, st, err := Run(context.Background(), Options{
		Parallel: 1, Retries: 1, JobTimeout: 30 * time.Millisecond,
	}, []Job{stubJob("slow", seedHang)})
	if err != nil {
		t.Fatalf("retried timeout should succeed: %v", err)
	}
	if _, ok := res["slow"]; !ok || st.TimedOut != 1 || st.Retried != 1 || st.Failures != 0 {
		t.Fatalf("stats: %s", st)
	}
}

// TestChaosParentDeadlineClassifiedCanceled is the classification bugfix:
// a parent-context deadline is a cancellation (jobs never ran), not a job
// failure.
func TestChaosParentDeadlineClassifiedCanceled(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		return stubOK(cfg)
	})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, st, err := Run(ctx, Options{Parallel: 2}, []Job{stubJob("a", seedOK), stubJob("b", seedOK+1)})
	if st.Failures != 0 || st.Canceled != 2 {
		t.Fatalf("parent deadline must count as canceled, not failed: %s (err=%v)", st, err)
	}
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("canceled jobs must still be accounted for: %v", err)
	}
}

// TestChaosMidSweepCancelResume: cancellation mid-sweep drains, leaves a
// journal + cache, and a rerun resumes with zero re-simulated completed
// jobs.
func TestChaosMidSweepCancelResume(t *testing.T) {
	var mu sync.Mutex
	simulated := map[int64]int{}
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		mu.Lock()
		simulated[cfg.Seed]++
		mu.Unlock()
		return stubOK(cfg)
	})
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = stubJob(fmt.Sprintf("job%d", i), int64(seedOK+10*i))
	}
	cache := NewCache(t.TempDir())

	// First sweep: an operator interrupt fires after two jobs completed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Parallel: 1, Cache: cache, OnJobDone: func(done, total int, j Job, cached bool, err error) {
		if done == 2 {
			cancel()
		}
	}}
	_, st, err := Run(ctx, opts, jobs)
	if st.Simulated != 2 || st.Canceled != 3 || st.Failures != 0 {
		t.Fatalf("interrupted sweep stats: %s (err=%v)", st, err)
	}

	// The journal must already record every terminal state.
	path := TelemetryPath(cache.Dir(), jobs)
	counts := journalCounts(t, path)
	if counts[sweep.EventSweepStart] != 1 || counts["done/"+sweep.OutcomeDone] != 2 || counts["done/"+sweep.OutcomeCanceled] != 3 {
		t.Fatalf("journal after interrupt: %v", counts)
	}

	// Resume: same sweep, fresh context — completed jobs come from the
	// cache, nothing is re-simulated.
	_, st2, err2 := Run(context.Background(), Options{Parallel: 1, Cache: cache}, jobs)
	if err2 != nil {
		t.Fatal(err2)
	}
	if st2.CacheHits != 2 || st2.Simulated != 3 {
		t.Fatalf("resume stats: %s", st2)
	}
	for seed, n := range simulated {
		if n != 1 {
			t.Fatalf("seed %d simulated %d times; resume must never re-simulate completed jobs", seed, n)
		}
	}

	// The resumed run appended its own sweep_start and events to the same
	// file.
	counts = journalCounts(t, path)
	if counts[sweep.EventSweepStart] != 2 || counts["done/"+sweep.OutcomeCached] != 2 || counts["done/"+sweep.OutcomeDone] != 5 {
		t.Fatalf("journal after resume: %v", counts)
	}
}

// journalCounts tallies a sweep journal's events by type, and its done
// events as "done/<outcome>".
func journalCounts(t *testing.T, path string) map[string]int {
	t.Helper()
	evs, err := sweep.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ev := range evs {
		counts[ev.Type]++
		if ev.Type == sweep.EventDone {
			counts["done/"+ev.Outcome]++
		}
	}
	return counts
}

// TestChaosJournalStates: panic and timeout jobs land in the journal with
// their own outcomes and the terminal error text.
func TestChaosJournalStates(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		switch cfg.Seed {
		case seedPanic:
			panic("journal chaos")
		case seedHang:
			return stubHang(ctx)
		default:
			return stubOK(cfg)
		}
	})
	cache := NewCache(t.TempDir())
	jobs := []Job{stubJob("ok", seedOK), stubJob("boom", seedPanic), stubJob("wedge", seedHang)}
	_, _, err := Run(context.Background(), Options{
		Parallel: 1, KeepGoing: true, Cache: cache, JobTimeout: 30 * time.Millisecond,
	}, jobs)
	if err == nil {
		t.Fatal("want error")
	}
	evs, rerr := sweep.ReadJournal(TelemetryPath(cache.Dir(), jobs))
	if rerr != nil {
		t.Fatal(rerr)
	}
	byKey := map[string]sweep.Event{}
	for _, ev := range evs {
		if ev.Type == sweep.EventDone {
			byKey[ev.Key] = ev
		}
	}
	if byKey["ok"].Outcome != sweep.OutcomeDone || byKey["boom"].Outcome != sweep.OutcomePanic || byKey["wedge"].Outcome != sweep.OutcomeTimeout {
		t.Fatalf("journal outcomes: %+v", byKey)
	}
	if !strings.Contains(byKey["boom"].Error, "journal chaos") {
		t.Errorf("panic record should carry the panic message: %q", byKey["boom"].Error)
	}
	if byKey["wedge"].Attempt != 1 || byKey["boom"].Attempt != 1 {
		t.Errorf("single-attempt jobs must record Attempt=1: %+v", byKey)
	}
}

// TestJournalTornLineTolerated: a crash mid-append tears at most the
// final line; ReadJournal returns every complete event before it.
func TestJournalTornLineTolerated(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		return stubOK(cfg)
	})
	cache := NewCache(t.TempDir())
	jobs := []Job{stubJob("a", seedOK)}
	if _, _, err := Run(context.Background(), Options{Parallel: 1, Cache: cache}, jobs); err != nil {
		t.Fatal(err)
	}
	path := TelemetryPath(cache.Dir(), jobs)
	whole, err := sweep.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the torn write of a crashed process.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"type":"done","key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	evs, err := sweep.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(whole) || evs[0].Type != sweep.EventSweepStart {
		t.Fatalf("torn journal events: %+v", evs)
	}
	if c := journalCounts(t, path); c["done/"+sweep.OutcomeDone] != 1 {
		t.Fatalf("torn journal lost the done event: %v", c)
	}
}

// TestStatsRegisterObs: the hardening counters surface through the obs
// metrics registry.
func TestStatsRegisterObs(t *testing.T) {
	st := Stats{Jobs: 7, Panics: 1, TimedOut: 2, Retried: 3, CacheCorrupt: 4}
	reg := obs.NewRegistry()
	st.Register(reg)
	want := map[string]float64{
		"runner_jobs": 7, "runner_panics": 1, "runner_timed_out": 2,
		"runner_retried": 3, "runner_cache_corrupt": 4, "runner_failures": 0,
	}
	got := map[string]float64{}
	for _, s := range reg.Snapshot().Samples {
		got[s.Name] = s.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}
