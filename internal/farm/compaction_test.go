package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/farm/api"
	"repro/internal/runner"
	"repro/internal/runspec"
	"repro/internal/sim"
)

// TestJournalCompactionRoundTrip drives one coordinator lifetime through
// every job state (done, failed, leased, queued), then restarts over the
// same directory twice. The first restart converts history into live state
// (done → cached, the orphaned lease → requeued); from then on the
// compacted journal must be a fixed point: snapshot → replay → snapshot is
// byte-identical under a frozen clock.
func TestJournalCompactionRoundTrip(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	cfg := Config{CacheDir: dir, LeaseTTL: 30 * time.Second, Retries: 3, Clock: clock.Now}
	ctx := context.Background()

	jobs := []runspec.Named{protoJob("done", 1), protoJob("fail", 2), protoJob("leased", 3), protoJob("queued", 4)}

	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, cl := serveFarm(t, co)
	sub, err := cl.Submit(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := cl.Lease(ctx, "w", 0) // "done"
	if _, err := cl.Complete(ctx, api.CompleteRequest{Lease: l1.ID, Outcome: api.OutcomeOK, Summary: &sim.Summary{Cycles: 42}}); err != nil {
		t.Fatal(err)
	}
	l2, _ := cl.Lease(ctx, "w", 0) // "fail"
	if _, err := cl.Complete(ctx, api.CompleteRequest{Lease: l2.ID, Outcome: api.OutcomeFailed, Error: "injected"}); err != nil {
		t.Fatal(err)
	}
	if l3, _ := cl.Lease(ctx, "w", 0); l3 == nil || l3.Key != "leased" {
		t.Fatalf("third lease: %+v", l3) // left in flight across the "crash"
	}
	srv.Close()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart 1: replay + startup compaction. History becomes live state.
	co2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := co2.Snapshot()
	// done → cached (served from the corpus, never re-dispatched); the
	// orphaned lease goes back to the queue with its attempt charged.
	if s.Jobs != 4 || s.Cached != 1 || s.Failed != 1 || s.Queued != 2 || s.Leased != 0 {
		t.Fatalf("restart snapshot: %+v", s)
	}
	_, cl2 := serveFarm(t, co2)
	st, err := cl2.Sweep(ctx, sub.Sweep)
	if err != nil {
		t.Fatalf("sweep must survive the restart: %v", err)
	}
	if len(st.Jobs) != 4 || st.Jobs[0].Key != "done" || st.Jobs[0].State != api.StateCached {
		t.Fatalf("restored sweep: %+v", st)
	}
	if st.Jobs[2].Attempts != 1 {
		t.Fatalf("orphaned lease must keep its charged attempt: %+v", st.Jobs[2])
	}
	// The done job's summary is still addressable by hash.
	h, _ := jobs[0].Spec.Hash()
	res, err := cl2.Result(ctx, h)
	if err != nil || res.Summary.Cycles != 42 {
		t.Fatalf("restored result: %+v %v", res, err)
	}
	if err := co2.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	// Restart 2: the compacted journal must replay to the same state and
	// compact to the same bytes — the fixed point that bounds journal growth.
	co3, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s3 := co3.Snapshot(); s3 != s {
		t.Fatalf("second replay diverged: %+v vs %+v", s3, s)
	}
	if err := co3.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j2, j3) {
		t.Fatalf("compaction is not a fixed point:\nafter restart 1:\n%s\nafter restart 2:\n%s", j2, j3)
	}

	// The compacted journal holds only snapshot record kinds — no replayed
	// lease/expire/requeue history.
	recs, err := ReadJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		switch r.Kind {
		case "submit", "cached", "failed", "queued", "lease":
		default:
			t.Fatalf("unexpected record kind %q in compacted journal", r.Kind)
		}
		if r.Kind != "submit" && r.Kind != "lease" && r.Spec == nil {
			t.Fatalf("compacted %s record for %s must carry its spec", r.Kind, r.Hash)
		}
	}
}

// TestReplayRekeysRenormalizedSpec replays a journal written before
// Spec.Normalized folded an explicit default mapping policy: it keys a
// synergy+column run (one of Fig 15's) by the hash that spec had then, and
// the corpus holds the run under that hash. The restarted coordinator must
// key the job by the spec's current hash, so it neither quarantines the old
// entry as corrupt nor stores the re-simulated result where no current
// submission looks, and the next restart serves the job from the corpus.
func TestReplayRekeysRenormalizedSpec(t *testing.T) {
	const oldHash = "90b6ed6ffc4b3347afdd22bfb0a46fe1dcfed19d58377727a45584a90d4ff0a5"
	spec := runspec.Spec{
		Scheme: "synergy", Benchmark: "mcf", Cores: 1, Channels: 1, Policy: "column",
		OpsPerCore: 300, Seed: 1, DataFrac: 0.75,
	}
	newHash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if newHash == oldHash {
		t.Fatal("the default policy no longer folds; the journal below is not stale")
	}
	dir := t.TempDir()
	if err := runner.NewCache(dir).Store(oldHash, spec, &sim.Summary{Cycles: 42}); err != nil {
		t.Fatal(err)
	}
	sweepID := runspec.SweepID([]string{oldHash})
	var stale bytes.Buffer
	for _, rec := range []JournalRecord{
		{Kind: "submit", Sweep: sweepID, Jobs: 1, Keys: []string{"fig15"}, Hashes: []string{oldHash}},
		{Kind: "cached", Sweep: sweepID, Key: "fig15", Hash: oldHash, Spec: &spec},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		stale.Write(append(line, '\n'))
	}
	if err := os.WriteFile(JournalPath(dir), stale.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	noQuarantine := func() {
		t.Helper()
		if bad, _ := filepath.Glob(filepath.Join(dir, "*.bad")); len(bad) > 0 {
			t.Fatalf("replay quarantined %v", bad)
		}
	}
	cfg := Config{CacheDir: dir, LeaseTTL: 30 * time.Second, Retries: 3, Clock: newFakeClock().Now}
	ctx := context.Background()

	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noQuarantine()
	srv, cl := serveFarm(t, co)
	st, err := cl.Sweep(ctx, sweepID)
	if err != nil {
		t.Fatalf("the journaled sweep must survive the restart: %v", err)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].Hash != newHash || st.Jobs[0].State != api.StateQueued {
		t.Fatalf("replayed sweep %+v, want its job queued under %s", st.Jobs, newHash)
	}
	l, err := cl.Lease(ctx, "w", 0)
	if err != nil || l == nil || l.Hash != newHash {
		t.Fatalf("lease %+v %v, want the job under %s", l, err, newHash)
	}
	if _, err := cl.Complete(ctx, api.CompleteRequest{Lease: l.ID, Outcome: api.OutcomeOK, Summary: &sim.Summary{Cycles: 42}}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	co2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	noQuarantine()
	if s := co2.Snapshot(); s.Jobs != 1 || s.Cached != 1 {
		t.Fatalf("second restart snapshot %+v, want the job cached", s)
	}
	_, cl2 := serveFarm(t, co2)
	if res, err := cl2.Result(ctx, newHash); err != nil || res.Summary.Cycles != 42 {
		t.Fatalf("result under %s: %+v %v", newHash, res, err)
	}
}

// TestJournalThresholdCompaction: once the journal outgrows CompactBytes it
// is rewritten in place mid-flight, and the coordinator keeps serving the
// same state afterwards.
func TestJournalThresholdCompaction(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	co, err := NewCoordinator(Config{CacheDir: dir, LeaseTTL: time.Minute, Retries: 100, Clock: clock.Now, CompactBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	_, cl := serveFarm(t, co)
	ctx := context.Background()

	if _, err := cl.Submit(ctx, []runspec.Named{protoJob("churn", 1)}); err != nil {
		t.Fatal(err)
	}
	// Churn one job through lease/panic/requeue cycles: pure history the
	// snapshot erases, so the journal must stay bounded instead of growing
	// with the churn. 60 cycles of lease+requeue records would be well over
	// 10 KiB un-compacted.
	for i := 0; i < 60; i++ {
		l, err := cl.Lease(ctx, "w", 0)
		if err != nil || l == nil {
			t.Fatalf("lease %d: %+v %v", i, l, err)
		}
		if _, err := cl.Complete(ctx, api.CompleteRequest{Lease: l.ID, Outcome: api.OutcomePanic, Error: strings.Repeat("x", 64)}); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 2*2048 {
		t.Fatalf("journal grew to %dB despite the 2 KiB compaction threshold", fi.Size())
	}
	// State survived the in-place rewrites.
	if s := co.Snapshot(); s.Jobs != 1 || s.Queued != 1 {
		t.Fatalf("post-compaction snapshot: %+v", s)
	}
}

// serveFarm mounts an existing coordinator on a fresh httptest server (the
// testFarm helper owns coordinator construction; restart tests need the two
// separated).
func serveFarm(t *testing.T, co *Coordinator) (*httptest.Server, *Client) {
	t.Helper()
	srv := httptest.NewServer(Handler(co))
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL)
}
