package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/runspec"
	"repro/internal/workload"
)

// tiny returns minimal-scale options over two contrasting benchmarks.
func tiny(t *testing.T) Options {
	t.Helper()
	return Options{
		OpsPerCore: 1200,
		Seed:       5,
		W:          io.Discard,
		Benchmarks: []string{"pr", "lbm"},
	}
}

func TestFig8ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tiny(t)
	r, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Fig8Schemes {
		sr := r.Schemes[s]
		if sr == nil || sr.GeoTop15 <= 1.0 {
			t.Fatalf("%s: normalized time %v should exceed the non-secure baseline", s, sr)
		}
	}
	// The paper's central orderings.
	if r.Schemes["itvault"].GeoTop15 >= r.Schemes["vault"].GeoTop15 {
		t.Error("isolation should improve VAULT")
	}
	if r.Schemes["itsynergy"].GeoTop15 >= r.Schemes["synergy"].GeoTop15 {
		t.Error("isolation should improve Synergy")
	}
	if r.Schemes["itesp"].GeoTop15 >= r.Schemes["synergy"].GeoTop15 {
		t.Error("ITESP should beat baseline Synergy")
	}
}

func TestFig9TotalsConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tiny(t)
	rows, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig9Row{}
	for _, r := range rows {
		byName[r.Scheme] = r
		if r.Total < 1 {
			t.Fatalf("%s: total %v below the data access itself", r.Scheme, r.Total)
		}
	}
	// Synergy carries MACs in ECC: zero MAC traffic; VAULT has plenty.
	if byName["synergy"].MACReads != 0 || byName["synergy"].MACWrites != 0 {
		t.Error("synergy should have no MAC traffic")
	}
	if byName["vault"].MACReads == 0 {
		t.Error("vault should fetch MACs")
	}
	// ITESP has neither MAC nor parity traffic.
	it := byName["itesp"]
	if it.MACReads+it.MACWrites+it.ParityReads+it.ParityWrite != 0 {
		t.Error("itesp should embed everything in the tree")
	}
	// Baseline Synergy writes parity on every data write.
	if byName["synergy"].ParityWrite == 0 {
		t.Error("synergy should write parity")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1(Options{W: io.Discard})
	want := map[string]float64{
		"VAULT":                 14.1,
		"Synergy128, x8 chips":  13.3,
		"Synergy128, x16 chips": 25.8,
		"ITESP64":               1.6,
		"ITESP128":              0.8,
	}
	for _, r := range rows {
		w, ok := want[r.Organization]
		if !ok {
			t.Fatalf("unexpected organization %q", r.Organization)
		}
		if r.TotalPct < w-0.3 || r.TotalPct > w+0.3 {
			t.Errorf("%s: total %.2f%%, paper %.1f%%", r.Organization, r.TotalPct, w)
		}
	}
}

func TestTable2MatchesPaperShape(t *testing.T) {
	res := Table2(Options{W: io.Discard, Seed: 2})
	if res.ITESP.DUEMultiChip <= res.Synergy.DUEMultiChip {
		t.Error("ITESP Case 4 must be worse than Synergy's")
	}
	if res.ITESP.SDCDetection != res.Synergy.SDCDetection {
		t.Error("Case 1 must match")
	}
	if res.SingleChip.Corrected != res.SingleChip.Trials {
		t.Error("single-chip errors must correct")
	}
	if res.TwoChips.DUE != res.TwoChips.Trials {
		t.Error("two-chip errors must be DUEs")
	}
	if res.ChipPlusSibling.DUE != res.ChipPlusSibling.Trials {
		t.Error("sibling errors must defeat shared parity")
	}
}

func TestFig5ChannelOpensAndCloses(t *testing.T) {
	inter, iso := Fig5(Options{W: io.Discard, Seed: 1})
	if !inter[len(inter)-1].Distinguishable {
		t.Error("shared-tree channel should open at 256 blocks")
	}
	for _, p := range iso {
		if p.Distinguishable {
			t.Error("isolated channel should stay closed")
		}
	}
}

func TestFig2UtilizationImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tiny(t)
	o.Benchmarks = []string{"pr"}
	rows, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if rows[0].UseSmall <= rows[0].UseLarge {
		t.Errorf("single-program model should use metadata blocks more: %.2f vs %.2f",
			rows[0].UseSmall, rows[0].UseLarge)
	}
}

func TestFig3FractionsSumToOne(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tiny(t)
	o.Benchmarks = []string{"mcf"}
	rows, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		var sum float64
		for _, f := range r.Frac {
			sum += f
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s/%s: case fractions sum to %.3f", r.Benchmark, r.Model, sum)
		}
	}
}

func TestFig15PoliciesCovered(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tiny(t)
	o.Benchmarks = []string{"lbm"}
	rows, err := Fig15(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 policies", len(rows))
	}
	// Column keeps the best row-buffer hit rate; rank the worst.
	if rows[0].RowHitRate <= rows[1].RowHitRate {
		t.Errorf("column row-hit %.2f should beat rank %.2f", rows[0].RowHitRate, rows[1].RowHitRate)
	}
}

func TestPrintedOutputGoesToWriter(t *testing.T) {
	var buf bytes.Buffer
	Table1(Options{W: &buf})
	if !strings.Contains(buf.String(), "Table I") {
		t.Fatal("table output missing")
	}
}

// TestUnknownBenchmarkIsError checks that an unknown benchmark name fails
// while the job set is built: an error, before anything simulates or
// prints, even for a run that starts with an artifact needing no runs.
func TestUnknownBenchmarkIsError(t *testing.T) {
	var buf bytes.Buffer
	var st runner.Stats
	o := Options{Benchmarks: []string{"nope"}, W: &buf, RunnerStats: &st}
	_, err := Run(o, AllArtifacts...)
	if err == nil || !strings.Contains(err.Error(), `unknown benchmark "nope"`) {
		t.Fatalf("err = %v, want an unknown-benchmark error", err)
	}
	if buf.Len() != 0 || st.Jobs != 0 {
		t.Fatalf("printed %q and ran %d jobs before failing", buf.String(), st.Jobs)
	}
}

func TestAllBenchmarksComplete(t *testing.T) {
	if len(allBenchmarks()) != len(workload.Specs()) {
		t.Fatal("allBenchmarks out of sync with workload.Specs")
	}
}

func TestWarmCacheByteIdenticalOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	run := func() (string, runner.Stats) {
		var buf bytes.Buffer
		var st runner.Stats
		o := tiny(t)
		o.Benchmarks = []string{"pr"}
		o.W = &buf
		o.CacheDir = dir
		o.RunnerStats = &st
		if _, err := Fig2(o); err != nil {
			t.Fatal(err)
		}
		return buf.String(), st
	}
	cold, coldStats := run()
	if coldStats.Simulated == 0 || coldStats.CacheHits != 0 {
		t.Fatalf("cold sweep: %s", coldStats)
	}
	warm, warmStats := run()
	if warmStats.Simulated != 0 || warmStats.CacheHits != coldStats.Simulated {
		t.Fatalf("warm sweep should be 100%% cache hits: %s", warmStats)
	}
	if cold != warm {
		t.Errorf("warm-cache output differs:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}

func TestInterruptedSweepResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Uninterrupted reference sweep.
	ref := tiny(t)
	ref.Benchmarks = []string{"pr"}
	var refBuf bytes.Buffer
	ref.W = &refBuf
	ref.CacheDir = t.TempDir()
	if _, err := Fig2(ref); err != nil {
		t.Fatal(err)
	}

	// "Interrupted" sweep: only part of the job matrix (the 1-core small
	// model) completed before the crash; the resumed full sweep re-runs
	// only the missing configurations and matches the reference output.
	dir := t.TempDir()
	partial := tiny(t)
	partial.Benchmarks = []string{"pr"}
	partial.W = io.Discard
	partial.CacheDir = dir
	var partialStats runner.Stats
	partial.RunnerStats = &partialStats
	// Seed the cache with a strict subset: the exact spec Fig2 uses for
	// its 1-core "small" model of pr.
	small := runspec.Spec{
		Scheme: "vault", Benchmark: "pr", Cores: 1, Channels: 1,
		OpsPerCore: partial.ops(), Seed: partial.seed(), DenseAlloc: true,
	}
	if _, err := runBatch(partial, []runspec.Named{{Key: "seed", Spec: small}}); err != nil {
		t.Fatal(err)
	}
	done := partialStats.Simulated

	resumed := tiny(t)
	resumed.Benchmarks = []string{"pr"}
	var resumedBuf bytes.Buffer
	resumed.W = &resumedBuf
	resumed.CacheDir = dir
	var resumedStats runner.Stats
	resumed.RunnerStats = &resumedStats
	if _, err := Fig2(resumed); err != nil {
		t.Fatal(err)
	}
	if resumedStats.CacheHits != done {
		t.Fatalf("resume should reuse the %d completed runs: %s", done, resumedStats)
	}
	if resumedStats.Simulated != resumedStats.Jobs-done {
		t.Fatalf("resume should simulate only missing hashes: %s", resumedStats)
	}
	if refBuf.String() != resumedBuf.String() {
		t.Errorf("resumed output differs from uninterrupted sweep:\nref:\n%s\nresumed:\n%s",
			refBuf.String(), resumedBuf.String())
	}
}

func TestAblationParityShare(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tiny(t)
	o.Benchmarks = []string{"lbm"}
	rows, err := AblationParityShare(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// Storage overhead halves as N doubles.
	for i := 1; i < len(rows); i++ {
		if rows[i].Extra >= rows[i-1].Extra {
			t.Fatal("parity storage must shrink with N")
		}
	}
}

func TestAblationStrictVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tiny(t)
	o.Benchmarks = []string{"mcf"}
	rows, err := AblationStrictVerify(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].NormTime <= rows[0].NormTime {
		t.Fatalf("strict mode should be slower: %+v", rows)
	}
}

func TestAblationIsolationParts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tiny(t)
	o.Benchmarks = []string{"pr"}
	rows, err := AblationIsolationParts(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// Isolated trees (either cache mode) must beat the shared tree.
	if rows[1].NormTime >= rows[0].NormTime || rows[2].NormTime >= rows[0].NormTime {
		t.Fatalf("tree isolation should dominate: %+v", rows)
	}
}

func TestAblationITESPLeaf(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tiny(t)
	o.Benchmarks = []string{"lbm"}
	rows, err := AblationITESPLeaf(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.NormTime <= 0 || r.Extra <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}
