package runner

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/sweep"
	"repro/internal/sim"
)

// replayTotals converts sweep.Totals into a Stats for direct comparison
// against the runner's returned counters — the two vocabularies are defined
// to map one-for-one (outcomeState classifies into sweep.Outcome*).
func replayTotals(t *testing.T, path string) Stats {
	t.Helper()
	evs, err := sweep.ReadJournal(path)
	if err != nil {
		t.Fatalf("read journal %s: %v", path, err)
	}
	if len(evs) == 0 {
		t.Fatalf("telemetry journal %s is empty", path)
	}
	tot := sweep.Replay(evs)
	return Stats{
		Jobs: int64(tot.Jobs), Simulated: int64(tot.Simulated), CacheHits: int64(tot.CacheHits),
		Failures: int64(tot.Failures), Canceled: int64(tot.Canceled), Panics: int64(tot.Panics),
		TimedOut: int64(tot.TimedOut), Retried: int64(tot.Retried), CacheCorrupt: int64(tot.CacheCorrupt),
	}
}

// TestTelemetryChaosReplayMatchesStats is the integrity check for the
// telemetry journal: a sweep with panics, timeouts, retries, cache hits and
// a canceled remainder must produce a JSONL journal whose replayed totals
// equal the Stats the runner returned.
func TestTelemetryChaosReplayMatchesStats(t *testing.T) {
	attempts := map[int64]int{}
	var mu sync.Mutex
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		mu.Lock()
		attempts[cfg.Seed]++
		n := attempts[cfg.Seed]
		mu.Unlock()
		switch cfg.Seed {
		case seedPanic:
			panic("telemetry chaos panic")
		case seedHang:
			return stubHang(ctx)
		case seedFlaky:
			if n == 1 {
				panic("flaky first attempt")
			}
			return stubOK(cfg)
		default:
			return stubOK(cfg)
		}
	})

	dir := t.TempDir()
	cache := NewCache(dir)
	jobs := []Job{
		stubJob("ok", seedOK), stubJob("boom", seedPanic), stubJob("wedge", seedHang),
		stubJob("flaky", seedFlaky), stubJob("ok2", seedOK+10),
	}
	// Warm the cache so "ok" is a hit on the telemetry run.
	if _, _, err := Run(context.Background(), Options{
		Parallel: 1, Cache: cache,
	}, jobs[:1]); err != nil {
		t.Fatal(err)
	}

	col := sweep.New()
	_, st, err := Run(context.Background(), Options{
		Parallel: 2, Cache: cache, KeepGoing: true,
		JobTimeout: 50 * time.Millisecond, Retries: 1,
		Telemetry: col,
	}, jobs)
	if err == nil {
		t.Fatal("want joined error from the chaos jobs")
	}
	// boom panics twice (retry exhausted), wedge times out twice, flaky
	// panics once then succeeds.
	if st.Jobs != 5 || st.CacheHits != 1 || st.Simulated != 2 || st.Failures != 2 {
		t.Fatalf("stats: %s", st)
	}
	if st.Panics != 3 || st.TimedOut != 2 || st.Retried != 3 {
		t.Fatalf("attempt stats: %s", st)
	}

	path := TelemetryPath(dir, jobs)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("telemetry journal missing: %v", err)
	}
	if got := replayTotals(t, path); got != st {
		t.Fatalf("replayed totals diverge from runner stats:\n  replay: %s\n  stats:  %s", got, st)
	}

	// The collector's snapshot agrees too: all jobs completed, none in flight.
	p := col.Snapshot()
	if p.Jobs != 5 || p.Completed != 5 || p.InFlight != 0 {
		t.Fatalf("snapshot: %+v", p)
	}
	if p.Cached != 1 || p.Panics != 3 || p.Timeouts != 2 || p.Retries != 3 {
		t.Fatalf("snapshot detail: %+v", p)
	}
}

// TestTelemetryCanceledJobsJournaled: jobs skipped by a batch-canceling
// failure still get terminal events, so the journal accounts for every job.
func TestTelemetryCanceledJobsJournaled(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		if cfg.Seed == seedPanic {
			panic("cancel the rest")
		}
		return stubOK(cfg)
	})
	dir := t.TempDir()
	cache := NewCache(dir)
	jobs := []Job{
		stubJob("boom", seedPanic), stubJob("a", seedOK),
		stubJob("b", seedOK+20), stubJob("c", seedOK+30),
	}
	col := sweep.New()
	_, st, err := Run(context.Background(), Options{
		Parallel: 1, Cache: cache, Telemetry: col,
	}, jobs)
	if err == nil {
		t.Fatal("want error")
	}
	if st.Canceled != 3 || st.Failures != 1 {
		t.Fatalf("stats: %s", st)
	}
	if got := replayTotals(t, TelemetryPath(dir, jobs)); got != st {
		t.Fatalf("replayed totals diverge:\n  replay: %s\n  stats:  %s", got, st)
	}
}

// TestCacheOnlyRunJournals: a cache without a collector still journals
// through a private one — the journal replays to the returned Stats — and
// the journal is the only sweep record in the cache directory.
func TestCacheOnlyRunJournals(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		if cfg.Seed == seedPanic {
			panic("cache-only chaos")
		}
		return stubOK(cfg)
	})
	dir := t.TempDir()
	cache := NewCache(dir)
	jobs := []Job{stubJob("a", seedOK), stubJob("boom", seedPanic), stubJob("b", seedOK+10)}
	_, st, err := Run(context.Background(), Options{Parallel: 1, Cache: cache, KeepGoing: true}, jobs)
	if err == nil {
		t.Fatal("want error from the panicking job")
	}
	if st.Simulated != 2 || st.Failures != 1 || st.Panics != 1 {
		t.Fatalf("stats: %s", st)
	}
	if got := replayTotals(t, TelemetryPath(dir, jobs)); got != st {
		t.Fatalf("replayed totals diverge:\n  replay: %s\n  stats:  %s", got, st)
	}
	sweeps, err := filepath.Glob(filepath.Join(dir, "sweep-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 1 || sweeps[0] != TelemetryPath(dir, jobs) {
		t.Fatalf("sweep records in the cache dir: %v, want only the journal", sweeps)
	}
}

// TestTelemetryWithoutCacheStreamsOnly: a collector without a cache journals
// nothing to disk but still feeds subscribers and snapshots.
func TestTelemetryWithoutCacheStreamsOnly(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		return stubOK(cfg)
	})
	col := sweep.New()
	events, cancel := col.Subscribe(64)
	defer cancel()
	jobs := []Job{stubJob("a", seedOK), stubJob("b", seedOK+10)}
	_, st, err := Run(context.Background(), Options{Parallel: 1, Telemetry: col}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Simulated != 2 {
		t.Fatalf("stats: %s", st)
	}
	var done, sweepEnd int
	for drained := false; !drained; {
		select {
		case ev := <-events:
			switch ev.Type {
			case sweep.EventDone:
				done++
			case sweep.EventSweepEnd:
				sweepEnd++
			}
		default:
			drained = true
		}
	}
	if done != 2 || sweepEnd != 1 {
		t.Fatalf("streamed events: done=%d sweep_end=%d", done, sweepEnd)
	}
}

// TestStatsLiveReads: Options.Stats gauges are readable mid-run via
// Snapshot without racing the workers (check.sh runs this with -race).
func TestStatsLiveReads(t *testing.T) {
	release := make(chan struct{})
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		<-release
		return stubOK(cfg)
	})
	var live Stats
	jobs := []Job{stubJob("a", seedOK), stubJob("b", seedOK+20), stubJob("c", seedOK+30)}

	var wg sync.WaitGroup
	wg.Add(1)
	var st Stats
	go func() {
		defer wg.Done()
		_, st, _ = Run(context.Background(), Options{Parallel: 1, Stats: &live}, jobs)
	}()

	// Jobs is registered up front; terminal counters tick as jobs finish.
	deadline := time.After(5 * time.Second)
	for live.Snapshot().Jobs != 3 {
		select {
		case <-deadline:
			t.Fatal("live.Jobs never reached 3")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	release <- struct{}{} // finish the first job
	for live.Snapshot().Simulated < 1 {
		select {
		case <-deadline:
			t.Fatal("live.Simulated never ticked mid-run")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	wg.Wait()
	if got := live.Snapshot(); got != st {
		t.Fatalf("live stats diverge from returned stats:\n  live:     %s\n  returned: %s", got, st)
	}
}
