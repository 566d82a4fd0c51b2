package runner

import (
	"reflect"
	"testing"

	"repro/internal/runspec"
)

// batchJobs is an N-scheme sweep over one shared (benchmark, seed, cores,
// ops) trace plus one job with its own seed — the shape BatchTraces is
// built for.
func batchJobs() []Job {
	shared := runspec.Spec{Benchmark: "lbm", Cores: 2, OpsPerCore: 400, Seed: 5}
	jobs := make([]Job, 0, 4)
	for _, s := range []string{"nonsecure", "vault", "itesp"} {
		sp := shared
		sp.Scheme = s
		jobs = append(jobs, Job{Key: s, Spec: sp})
	}
	solo := shared
	solo.Scheme = "vault"
	solo.Seed = 99
	jobs = append(jobs, Job{Key: "vault-solo", Spec: solo})
	return jobs
}

// TestBatchTracesEquivalence asserts that a batched sweep produces exactly
// the summaries an unbatched sweep does: the shared snapshot must be
// byte-identical to per-run generation.
func TestBatchTracesEquivalence(t *testing.T) {
	jobs := batchJobs()
	plain, _ := mustRun(t, Options{Parallel: 2}, jobs)
	batched, _ := mustRun(t, Options{Parallel: 2, BatchTraces: true}, jobs)
	if !reflect.DeepEqual(plain, batched) {
		t.Errorf("batched sweep diverged from unbatched\n got: %+v\nwant: %+v", batched, plain)
	}
}

// TestBatchGrouping checks the grouping rules: shared keys with ≥ 2 jobs
// get a group, singletons do not, and LLC-filtered jobs never batch.
func TestBatchGrouping(t *testing.T) {
	jobs := batchJobs()
	b := newTraceBatch(jobs)
	if b == nil {
		t.Fatal("no batch built for a sweep with a 3-job shared key")
	}
	if len(b.groups) != 1 {
		t.Fatalf("groups = %d, want 1 (the singleton seed must not group)", len(b.groups))
	}
	if srcs := b.sourcesFor(jobs[0].Spec); srcs == nil {
		t.Error("shared job got no snapshot sources")
	} else if len(srcs) != jobs[0].Spec.Cores {
		t.Errorf("sources = %d, want %d (one per core)", len(srcs), jobs[0].Spec.Cores)
	}
	if b.sourcesFor(jobs[3].Spec) != nil {
		t.Error("singleton job unexpectedly batched")
	}

	llc := jobs[0].Spec
	llc.FilterLLC = true
	if _, ok := batchKey(llc); ok {
		t.Error("LLC-filtered spec must not produce a batch key")
	}

	var only []Job
	for _, s := range []string{"nonsecure", "vault"} {
		sp := llc
		sp.Scheme = s
		only = append(only, Job{Spec: sp})
	}
	if nb := newTraceBatch(only); nb != nil {
		t.Error("sweep of only LLC-filtered jobs built a batch")
	}
}

// TestBatchKeyFoldsOpsDefault checks that an unset OpsPerCore and the
// explicit 100k default land in the same group, mirroring the simulator's
// defaulting.
func TestBatchKeyFoldsOpsDefault(t *testing.T) {
	a := runspec.Spec{Benchmark: "lbm", Cores: 1, Seed: 1}
	b := a
	b.OpsPerCore = 100_000
	ka, _ := batchKey(a)
	kb, _ := batchKey(b)
	if ka != kb {
		t.Errorf("default and explicit ops keys differ: %+v vs %+v", ka, kb)
	}
}
