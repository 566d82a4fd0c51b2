package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/farm/api"
	"repro/internal/runner"
	"repro/internal/sim"
)

// cannedTraces is `go tool pprof -traces` output in the toolchain's
// format: each stack innermost frame first, the sample value on its first
// line.
const cannedTraces = `File: benchmark
Type: cpu
Duration: 1s, Total samples = 130ms (13.00%)
-----------+-------------------------------------------------------
      30ms   runtime.memmove
             repro/internal/dram.(*channel).scanRank
             repro/internal/dram.(*Memory).Tick
             repro/internal/sim.RunContext
-----------+-------------------------------------------------------
      20ms   internal/runtime/maps.ctrlGroup.matchFull (inline)
             runtime.mapaccess2_fast64
             repro/internal/enclave.(*System).Translate
             repro/internal/core.(*Engine).Access
             repro/internal/cpu.(*Core).Cycle
-----------+-------------------------------------------------------
      10ms   repro/internal/stats.(*Counter).Inc (inline)
             repro/internal/cpu.(*Core).Cycle
             repro/internal/sim.RunContext
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
      10ms   encoding/json.(*encodeState).marshal
             repro/internal/obs/sweep.(*Collector).emit
             repro/internal/runner.Run
-----------+-------------------------------------------------------
      20ms   crypto/sha256.block
             repro/internal/runspec.Spec.Hash
             repro/internal/farm.(*Coordinator).Submit
-----------+-------------------------------------------------------
      10ms   sort.Strings
             repro/internal/experiments.sortedKeys[go.shape.*repro/internal/sim.Summary]
             repro/internal/experiments.Fig8
-----------+-------------------------------------------------------
      10ms   encoding/json.(*decodeState).object
             encoding/json.Unmarshal
             main.(*farmHTTP).wrap.func1
             net/http.HandlerFunc.ServeHTTP
-----------+-------------------------------------------------------
      10ms   runtime.memmove
             main.(*headReader).Read
             encoding/json.(*Decoder).refill
             repro/internal/farm.(*server).complete
-----------+-------------------------------------------------------
`

// TestAttributeInnermostRepoFrame checks that each sample is charged to
// its innermost repo frame, standard-library frames counting for the repo
// frame that called them, and stacks without one going to "other". The
// benchmark's own frames are kept out of the layers and the total.
func TestAttributeInnermostRepoFrame(t *testing.T) {
	a, err := attribute(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 110*time.Millisecond || a.harness != 20*time.Millisecond {
		t.Fatalf("total = %v, harness = %v; want 110ms, 20ms", a.total, a.harness)
	}
	want := map[string]time.Duration{
		"dram":    30 * time.Millisecond, // memmove counts for scanRank
		"enclave": 20 * time.Millisecond, // map lookup counts for Translate, not core
		"cpu":     10 * time.Millisecond, // stats counters count for their caller
		"other":   10 * time.Millisecond, // GC worker: no repo frame
		"obs":     10 * time.Millisecond, // obs/sweep is its own package path
		"runspec": 20 * time.Millisecond, // hashing inside Submit is runspec's
		"runner":  10 * time.Millisecond, // generic instantiation of an experiments func
	}
	for _, l := range layers {
		if a.by[l] != want[l] {
			t.Errorf("%s: %v, want %v", l, a.by[l], want[l])
		}
	}
	var sum float64
	for _, l := range layers {
		sum += a.share(l)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestAttributeRejectsMalformedStack(t *testing.T) {
	if _, err := attribute("-----------+----\n   garbage\n"); err == nil {
		t.Fatal("malformed stack head accepted")
	}
}

// TestPercentileTailRule checks that p90 is reported only when at least
// ten samples lie beyond it.
func TestPercentileTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted input
		}
		return xs
	}
	withTies := seq(50)
	for len(withTies) < 100 {
		withTies = append(withTies, 50)
	}
	cases := []struct {
		name string
		xs   []float64
		want float64
		ok   bool
	}{
		{"100 samples", seq(100), 90, true},
		{"99 samples", seq(99), 90, false},
		{"110 samples", seq(110), 99, true},
		{"ties at the top", withTies, 50, false},
		{"empty", nil, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(c.xs, 0.9)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: percentile = %v, %v; want %v, %v", c.name, got, ok, c.want, c.ok)
		}
	}
	if p50, _ := percentile(seq(100), 0.5); p50 != 50 {
		t.Errorf("p50 = %v, want 50", p50)
	}
}

// TestPerturbedSummaryCountsAsFailure checks that a summary differing
// from the reference in one simulated count, or missing, is a failure.
func TestPerturbedSummaryCountsAsFailure(t *testing.T) {
	sums := map[string]*sim.Summary{
		"4c1ch/itesp/mcf":     {Scheme: "itesp", Cycles: 1000, DataOps: 400},
		"4c1ch/nonsecure/mcf": {Scheme: "nonsecure", Cycles: 800, DataOps: 400},
		"4c1ch/synergy/mcf":   {Scheme: "synergy", Cycles: 1200, DataOps: 400},
	}
	ref := digests(sums)
	if bad, _ := failures([]map[string]string{ref}, digests(sums)); len(bad) != 0 {
		t.Fatalf("identical summaries: %d failures", len(bad))
	}

	perturbed := *sums["4c1ch/itesp/mcf"]
	perturbed.Cycles++
	got := digests(sums)
	got["4c1ch/itesp/mcf"] = digest(&perturbed)
	delete(got, "4c1ch/synergy/mcf")
	bad, ex := failures([]map[string]string{nil, ref, ref}, got)
	if len(bad) != 2 || !bad["4c1ch/itesp/mcf"] || !bad["4c1ch/synergy/mcf"] {
		t.Fatalf("failures = %v, want the perturbed and the missing job", bad)
	}
	if len(ex) != 2 || ex[0] != "4c1ch/itesp/mcf differs" || ex[1] != "4c1ch/synergy/mcf missing" {
		t.Fatalf("examples = %q", ex)
	}
	if setDigest(got) == setDigest(ref) {
		t.Fatal("set digest unchanged by a perturbed summary")
	}
}

// TestJobsMatchFig8 checks that the job list sweep-intensive hands to
// runner.Run is the one experiments.Fig8 runs: same keys, same summaries.
func TestJobsMatchFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	b := batch{fig8Machine, []string{"ep"}, 50}
	r, err := experiments.Fig8(experiments.Options{
		OpsPerCore: b.ops, Seed: 42, Parallel: 1, Cores: b.m.cores, Channels: b.m.channels,
		Benchmarks: b.benches, W: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := runner.Run(context.Background(), runner.Options{Parallel: 1}, b.jobs(42))
	if err != nil {
		t.Fatal(err)
	}
	want, got := digests(r.Raw), digests(direct)
	if len(want) != 9 {
		t.Fatalf("Fig8 ran %d jobs, want 9", len(want))
	}
	if bad, ex := failures([]map[string]string{want}, got); len(bad) != 0 || len(got) != len(want) {
		t.Fatalf("job lists differ: %v", ex)
	}
}

// TestRefsMatchWorkloads checks that the stored references cover every
// workload at its current job sizes.
func TestRefsMatchWorkloads(t *testing.T) {
	r, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		exp, err := r.expected(w, r.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(exp) != w.size() {
			t.Errorf("%s: %d reference jobs, want %d", w.name, len(exp), w.size())
		}
		if setDigest(exp) != r.Workloads[w.name].Digest {
			t.Errorf("%s: stored digest does not fold the stored jobs", w.name)
		}
	}
}

func TestRouteNames(t *testing.T) {
	cases := map[[2]string]string{
		{"POST", "/v1/sweeps"}:          "submit",
		{"GET", "/v1/sweeps/abc"}:       "status",
		{"GET", "/v1/results/0123"}:     "result",
		{"POST", "/v1/jobs/lease"}:      "lease",
		{"POST", "/v1/jobs/complete"}:   "complete",
		{"POST", "/v1/jobs/heartbeat"}:  "heartbeat",
		{"POST", "/v1/workers"}:         "register",
		{"GET", "/events"}:              "events",
		{"GET", "/metrics"}:             "other",
		{"GET", "/debug/pprof/profile"}: "other",
	}
	for in, want := range cases {
		if got := routeName(in[0], in[1]); got != want {
			t.Errorf("%s %s: %q, want %q", in[0], in[1], got, want)
		}
	}
}

// TestLeadingLease checks that the lease ID is read from the first bytes
// of an encoded complete request, without the summary after it.
func TestLeadingLease(t *testing.T) {
	body, err := json.Marshal(api.CompleteRequest{
		Lease: "L42", Outcome: "done", Summary: &sim.Summary{Scheme: strings.Repeat("x", 4*completeHead)},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &headReader{ReadCloser: io.NopCloser(bytes.NewReader(body)), head: make([]byte, 0, completeHead)}
	if _, err := io.Copy(io.Discard, h); err != nil {
		t.Fatal(err)
	}
	if len(h.head) != completeHead {
		t.Fatalf("kept %d bytes, want %d", len(h.head), completeHead)
	}
	if got := leadingLease(h.head); got != "L42" {
		t.Errorf("lease = %q, want L42", got)
	}
	for _, in := range []string{`{"outcome":"done","lease":"L1"}`, `["lease","L1"]`, `{"lease":`, ``} {
		if got := leadingLease([]byte(in)); got != "" {
			t.Errorf("%s: lease = %q, want none", in, got)
		}
	}
}

func TestLeaseServiceTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "lease", start: 0, end: 1 * ms},                   // empty poll
		{name: "lease", lease: "L1", start: 1 * ms, end: 2 * ms}, // grant
		{name: "complete", lease: "L1", start: 9 * ms, end: 12 * ms},
		{name: "lease", lease: "L2", start: 12 * ms, end: 13 * ms},
		{name: "complete", lease: "L2", start: 15 * ms, end: 16 * ms},
		{name: "complete", lease: "L9", start: 17 * ms, end: 18 * ms}, // never granted here
	}
	got := leaseServiceMS(spans)
	if len(got) != 2 || got[0] != 10 || got[1] != 3 {
		t.Fatalf("service times = %v, want [10 3]", got)
	}
}
