package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/runspec"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Label    string
	NormTime float64 // geomean over the selected benchmarks, vs non-secure
	Extra    float64 // sweep-specific secondary metric
}

// ablation declares one ablation study: each config's runs beside the
// non-secure baseline's. A config's key names its runs, and its spec holds
// the row's scheme knobs; the machine, benchmark, scale and seed are filled
// in per run. The runs are over a small representative benchmark set unless
// the caller overrides it (a graph kernel, a pointer chaser, and a stream).
// The core count follows o.Cores (paper default 4), so every ablation works
// at other core counts. The render prints title and header, then calls row
// with each config's index, geomean normalized time and runs in benchmark
// order; row prints the table row and returns it.
func ablation(o Options, title, header string, configs []runspec.Named,
	row func(w io.Writer, i int, g float64, cur []*sim.Summary) AblationRow) artifact {
	benches := o.benches([]string{"pr", "mcf", "lbm"})
	m := machine{o.cores(4), 1}
	baseline := runspec.Named{Key: "nonsecure", Spec: runspec.Spec{Scheme: "nonsecure"}}
	var jobs []runspec.Named
	for _, c := range configs {
		for _, b := range benches {
			for _, j := range []runspec.Named{baseline, c} {
				j.Key = m.key(j.Key, b)
				j.Spec.Benchmark, j.Spec.Cores, j.Spec.Channels = b, m.cores, m.channels
				j.Spec.OpsPerCore, j.Spec.Seed = o.ops(), o.seed()
				jobs = append(jobs, j)
			}
		}
	}
	render := func(w io.Writer, r runs) (any, any, error) {
		fmt.Fprintln(w, title)
		fmt.Fprintln(w, header)
		var rows []AblationRow
		for i, c := range configs {
			var cur []*sim.Summary
			for _, b := range benches {
				cur = append(cur, r[m.key(c.Key, b)])
			}
			rows = append(rows, row(w, i, r.geo(m, benches, "nonsecure", c.Key, cycles), cur))
		}
		return rows, nil, nil
	}
	return artifact{jobs: jobs, render: render}
}

// mustScheme returns a registered scheme sized for cores; the ablations
// name constant schemes, so an error is a bug.
func mustScheme(name string, cores int) core.Scheme {
	s, err := core.SchemeByName(name, cores)
	if err != nil {
		panic(err)
	}
	return s
}

// AblationParityShare sweeps the shared-parity degree N (Section III-C):
// larger N shrinks parity storage 1/N but concentrates read-modify-write
// pressure; it also reports the storage overhead each N implies.
func AblationParityShare(o Options) ([]AblationRow, error) {
	return runOne[[]AblationRow](o, "ablation_parity_share")
}

func parityShareArtifact(o Options) artifact {
	ns := []int{1, 4, 8, 16}
	var configs []runspec.Named
	for _, n := range ns {
		scheme := mustScheme("sharedparity+pc", o.cores(4))
		scheme.ParityShare = n
		if n == 1 {
			// Degenerates to the per-block parity cache design.
			scheme.Parity = core.ParityPerBlock
		}
		configs = append(configs, runspec.Named{Key: fmt.Sprintf("sharedparity+pc/N=%d", n), Spec: runspec.Spec{SchemeOverride: &scheme}})
	}
	return ablation(o, "Ablation: shared-parity degree N (scheme sharedparity+pc)",
		fmt.Sprintf("%8s %10s %16s", "N", "normTime", "parity storage%"), configs,
		func(w io.Writer, i int, g float64, _ []*sim.Summary) AblationRow {
			storage := 12.5 / float64(ns[i])
			fmt.Fprintf(w, "%8d %10.3f %16.2f\n", ns[i], g, storage)
			return AblationRow{Label: fmt.Sprintf("N=%d", ns[i]), NormTime: g, Extra: storage}
		})
}

// AblationITESPLeaf compares the two Figure 6 leaf organizations: 32x8-bit
// counters + 2 parities (itesp) vs 32x4-bit + 4 parities (itesp4p), each
// under its matched mapping policy.
func AblationITESPLeaf(o Options) ([]AblationRow, error) {
	return runOne[[]AblationRow](o, "ablation_itesp_leaf")
}

func itespLeafArtifact(o Options) artifact {
	labels := []string{"32x8b ctr + 2 parities", "32x4b ctr + 4 parities"}
	configs := []runspec.Named{
		{Key: "itesp", Spec: runspec.Spec{Scheme: "itesp"}},
		{Key: "itesp4p", Spec: runspec.Spec{Scheme: "itesp4p"}},
	}
	return ablation(o, "Ablation: ITESP leaf organization (Fig 6)",
		fmt.Sprintf("%-28s %10s %12s", "leaf", "normTime", "rowHitRate"), configs,
		func(w io.Writer, i int, g float64, cur []*sim.Summary) AblationRow {
			var rh []float64
			for _, r := range cur {
				rh = append(rh, r.RowHitRate)
			}
			row := AblationRow{Label: labels[i], NormTime: g, Extra: stats.ArithMean(rh)}
			fmt.Fprintf(w, "%-28s %10.3f %12.3f\n", row.Label, row.NormTime, row.Extra)
			return row
		})
}

// AblationStrictVerify quantifies the value of speculative verification
// (PoisonIvy-style) that every baseline in the paper assumes: with strict
// verification, a read's data is not released until its whole metadata walk
// returns.
func AblationStrictVerify(o Options) ([]AblationRow, error) {
	return runOne[[]AblationRow](o, "ablation_strict_verify")
}

func strictVerifyArtifact(o Options) artifact {
	labels := []string{"speculative", "strict"}
	configs := []runspec.Named{
		{Key: "itesp", Spec: runspec.Spec{Scheme: "itesp"}},
		{Key: "itesp/strict", Spec: runspec.Spec{Scheme: "itesp", StrictVerify: true}},
	}
	return ablation(o, "Ablation: speculative vs strict verification (scheme itesp)",
		fmt.Sprintf("%-14s %10s", "mode", "normTime"), configs,
		func(w io.Writer, i int, g float64, _ []*sim.Summary) AblationRow {
			fmt.Fprintf(w, "%-14s %10.3f\n", labels[i], g)
			return AblationRow{Label: labels[i], NormTime: g}
		})
}

// AblationIsolationParts separates the two components of the isolation
// technique: tree isolation (per-enclave trees) and metadata-cache
// partitioning. The paper observes "most of the benefit was because of tree
// isolation", with partitioning vital for leakage but minor for hit rates.
func AblationIsolationParts(o Options) ([]AblationRow, error) {
	return runOne[[]AblationRow](o, "ablation_isolation_parts")
}

func isolationPartsArtifact(o Options) artifact {
	parts := []struct {
		label, key, scheme string
		override           func(*core.Scheme)
	}{
		{"shared tree, shared $", "isolation/none", "synergy", nil},
		{"isolated tree, shared $", "isolation/tree", "itsynergy", func(s *core.Scheme) { s.UnpartitionedCache = true }},
		{"isolated tree + part. $", "isolation/tree+cache", "itsynergy", nil},
	}
	var configs []runspec.Named
	for _, p := range parts {
		scheme := mustScheme(p.scheme, o.cores(4))
		if p.override != nil {
			p.override(&scheme)
		}
		configs = append(configs, runspec.Named{Key: p.key, Spec: runspec.Spec{SchemeOverride: &scheme}})
	}
	return ablation(o, "Ablation: isolation components (Synergy base)",
		fmt.Sprintf("%-26s %10s", "configuration", "normTime"), configs,
		func(w io.Writer, i int, g float64, _ []*sim.Summary) AblationRow {
			fmt.Fprintf(w, "%-26s %10.3f\n", parts[i].label, g)
			return AblationRow{Label: parts[i].label, NormTime: g}
		})
}
