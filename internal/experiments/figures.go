package experiments

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/covert"
	"repro/internal/mem"
	"repro/internal/runspec"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig8Schemes are the eight secure configurations of Figure 8, in order —
// derived from the backend registry's "fig8" tag, so a backend registered
// with that tag joins the figure without touching this package.
var Fig8Schemes = core.NamesTagged("fig8")

// SchemeResult is one scheme's summary across benchmarks.
type SchemeResult struct {
	// Norm maps benchmark -> metric normalized to the non-secure baseline.
	Norm map[string]float64
	// GeoAll / GeoTop15 are geometric means over all benchmarks and over
	// the top-15 memory-intensive ones.
	GeoAll, GeoTop15 float64
}

// Fig8Result holds normalized execution times per scheme.
type Fig8Result struct {
	Schemes map[string]*SchemeResult
	// Raw holds the per-run summaries keyed "scheme/bench" for reuse.
	Raw map[string]*sim.Summary
}

// Improvement returns the top-15 performance improvement of scheme a over
// scheme b (e.g. ITESP over Synergy: the paper's headline 64%): perf =
// 1/time, improvement = perf_a/perf_b - 1.
func (r *Fig8Result) Improvement(a, b string) float64 {
	return r.Schemes[b].GeoTop15/r.Schemes[a].GeoTop15 - 1
}

// normJobs declares the non-secure baseline's and each scheme's run of
// every benchmark on machine m, benchmark by benchmark.
func normJobs(o Options, m machine, schemes, benches []string) []runspec.Named {
	var jobs []runspec.Named
	for _, b := range benches {
		for _, s := range append([]string{"nonsecure"}, schemes...) {
			jobs = append(jobs, runspec.Named{Key: m.key(s, b), Spec: runspec.Spec{
				Scheme: s, Benchmark: b, Cores: m.cores, Channels: m.channels,
				OpsPerCore: o.ops(), Seed: o.seed(),
			}})
		}
	}
	return jobs
}

// normResult normalizes each scheme's execution time per benchmark to the
// non-secure baseline on the same machine.
func normResult(r runs, m machine, schemes, benches []string) *Fig8Result {
	res := &Fig8Result{Schemes: map[string]*SchemeResult{}, Raw: map[string]*sim.Summary{}}
	top15 := workload.TopMemoryIntensive()
	for _, s := range append([]string{"nonsecure"}, schemes...) {
		norm, all := r.norm(m, benches, "nonsecure", s, cycles)
		var top []float64
		for _, b := range benches {
			res.Raw[s+"/"+b] = r[m.key(s, b)]
			if slices.Contains(top15, b) {
				top = append(top, norm[b])
			}
		}
		res.Schemes[s] = &SchemeResult{Norm: norm, GeoAll: stats.GeoMean(all), GeoTop15: stats.GeoMean(top)}
	}
	return res
}

// normArtifact declares schemes against the baseline over benches on
// machine def (or the Cores/Channels overrides) and prints the normalized
// time table under title, then whatever tail adds.
func normArtifact(o Options, title string, schemes, defaults []string, def machine, tail func(io.Writer, *Fig8Result)) artifact {
	benches := o.benches(defaults)
	m := o.machine(def)
	return artifact{
		jobs: normJobs(o, m, schemes, benches),
		render: func(w io.Writer, r runs) (any, any, error) {
			res := normResult(r, m, schemes, benches)
			printNormTable(w, title, schemes, benches, res)
			tail(w, res)
			return res, res.Schemes, nil
		},
	}
}

func printNormTable(w io.Writer, title string, schemes, benches []string, r *Fig8Result) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s", "benchmark")
	for _, s := range schemes {
		fmt.Fprintf(w, " %15s", s)
	}
	fmt.Fprintln(w)
	for _, b := range benches {
		fmt.Fprintf(w, "%-12s", b)
		for _, s := range schemes {
			fmt.Fprintf(w, " %15.3f", r.Schemes[s].Norm[b])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-12s", "geomean")
	for _, s := range schemes {
		fmt.Fprintf(w, " %15.3f", r.Schemes[s].GeoAll)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s", "geo-top15")
	for _, s := range schemes {
		fmt.Fprintf(w, " %15.3f", r.Schemes[s].GeoTop15)
	}
	fmt.Fprintln(w)
}

// Fig8 reproduces Figure 8: execution time of the eight secure schemes over
// all 31 benchmarks, normalized to the non-secure baseline (4 cores, 1
// channel).
func Fig8(o Options) (*Fig8Result, error) { return runOne[*Fig8Result](o, "fig8") }

func fig8Artifact(o Options) artifact {
	return normArtifact(o, "Fig 8: normalized execution time (4 cores, 1 channel)",
		Fig8Schemes, allBenchmarks(), paperMachine, func(w io.Writer, r *Fig8Result) {
			fmt.Fprintf(w, "\nISO improvement over Synergy (top-15): %+.1f%%\n", 100*r.Improvement("itsynergy", "synergy"))
			fmt.Fprintf(w, "ITESP improvement over Synergy (top-15): %+.1f%%  (paper: +64%%)\n", 100*r.Improvement("itesp", "synergy"))
			fmt.Fprintf(w, "ITESP improvement over ITSynergy (top-15): %+.1f%%  (paper: +19%%)\n", 100*r.Improvement("itesp", "itsynergy"))
		})
}

// Fig9Row is one scheme's traffic breakdown: memory accesses per data
// operation, by metadata structure.
type Fig9Row struct {
	Scheme                   string
	MACReads, MACWrites      float64
	CtrReads, CtrWrites      float64
	TreeReads, TreeWrites    float64
	ParityReads, ParityWrite float64
	Total                    float64 // data (1.0) + all metadata
}

// Fig9 reproduces Figure 9: the breakdown of data+metadata accesses per
// read/write operation, averaged over the top-15 benchmarks.
func Fig9(o Options) ([]Fig9Row, error) { return runOne[[]Fig9Row](o, "fig9") }

// fig9Artifact reads Fig 8's top-15 runs.
func fig9Artifact(o Options) artifact {
	benches := o.benches(workload.TopMemoryIntensive())
	m := o.machine(paperMachine)
	render := func(w io.Writer, r runs) (any, any, error) {
		var rows []Fig9Row
		fmt.Fprintln(w, "Fig 9: accesses per data operation (avg over top-15)")
		fmt.Fprintf(w, "%-16s %6s %6s %6s %6s %6s %6s %6s %6s %6s\n",
			"scheme", "mac.r", "mac.w", "ctr.r", "ctr.w", "tree.r", "tree.w", "par.r", "par.w", "total")
		for _, s := range Fig8Schemes {
			// Reads and writes per op of MACs, counters, tree nodes and
			// parity, averaged over the benchmarks.
			var per [8]float64
			for _, b := range benches {
				for k, kind := range []mem.Kind{mem.KindMAC, mem.KindCounter, mem.KindTree, mem.KindParity} {
					rd, wr := r[m.key(s, b)].KindPerOp(kind)
					per[2*k] += rd
					per[2*k+1] += wr
				}
			}
			row := Fig9Row{Scheme: s, Total: 1}
			for i := range per {
				per[i] /= float64(max(len(benches), 1)) // zeros without benchmarks
				row.Total += per[i]
			}
			row.MACReads, row.MACWrites, row.CtrReads, row.CtrWrites = per[0], per[1], per[2], per[3]
			row.TreeReads, row.TreeWrites, row.ParityReads, row.ParityWrite = per[4], per[5], per[6], per[7]
			rows = append(rows, row)
			fmt.Fprintf(w, "%-16s %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f\n",
				s, row.MACReads, row.MACWrites, row.CtrReads, row.CtrWrites,
				row.TreeReads, row.TreeWrites, row.ParityReads, row.ParityWrite, row.Total)
		}
		return rows, rows, nil
	}
	return artifact{jobs: normJobs(o, m, Fig8Schemes, benches), render: render}
}

// Fig10Result holds normalized memory energy and system EDP per scheme.
type Fig10Result struct {
	Energy map[string]*SchemeResult
	EDP    map[string]*SchemeResult
}

// Fig10 reproduces Figure 10: normalized memory energy and system EDP for
// the Figure 8 models (top-15 benchmarks).
func Fig10(o Options) (*Fig10Result, error) { return runOne[*Fig10Result](o, "fig10") }

// fig10Artifact reads Fig 8's top-15 runs.
func fig10Artifact(o Options) artifact {
	benches := o.benches(workload.TopMemoryIntensive())
	m := o.machine(paperMachine)
	render := func(w io.Writer, r runs) (any, any, error) {
		out := &Fig10Result{Energy: map[string]*SchemeResult{}, EDP: map[string]*SchemeResult{}}
		fmt.Fprintln(w, "Fig 10: normalized memory energy / system EDP (top-15 geomean)")
		fmt.Fprintf(w, "%-16s %10s %10s\n", "scheme", "energy", "edp")
		for _, s := range append([]string{"nonsecure"}, Fig8Schemes...) {
			en, evs := r.norm(m, benches, "nonsecure", s, joules)
			ed, dvs := r.norm(m, benches, "nonsecure", s, edp)
			out.Energy[s] = &SchemeResult{Norm: en, GeoTop15: stats.GeoMean(evs)}
			out.EDP[s] = &SchemeResult{Norm: ed, GeoTop15: stats.GeoMean(dvs)}
			fmt.Fprintf(w, "%-16s %10.3f %10.3f\n", s, out.Energy[s].GeoTop15, out.EDP[s].GeoTop15)
		}
		return out, out, nil
	}
	return artifact{jobs: normJobs(o, m, Fig8Schemes, benches), render: render}
}

// Fig11Schemes are the Morphable-Counter configurations of Figure 11,
// derived from the backend registry's "fig11" tag.
var Fig11Schemes = core.NamesTagged("fig11")

// Fig11 reproduces Figure 11: execution time (including local-counter
// overflow penalties) for Synergy and the Morphable-Counter family on an
// 8-core, 2-channel system.
func Fig11(o Options) (*Fig8Result, error) { return runOne[*Fig8Result](o, "fig11") }

func fig11Artifact(o Options) artifact {
	return normArtifact(o, "Fig 11: normalized execution time with Morphable Counters (8 cores, 2 channels)",
		Fig11Schemes, workload.TopMemoryIntensive(), machine{8, 2}, func(w io.Writer, r *Fig8Result) {
			fmt.Fprintf(w, "\nITESP64 improvement over SYN128 (top-15): %+.1f%%  (paper: +27%%)\n",
				100*r.Improvement("itesp64", "syn128"))
			fmt.Fprintf(w, "ITESP64 improvement over ITESP128 (top-15): %+.1f%%  (paper: +1.4%%)\n",
				100*r.Improvement("itesp64", "itesp128"))
		})
}

// Fig12Row summarizes one (scheme, core-count) configuration.
type Fig12Row struct {
	Scheme     string
	Cores      int
	Channels   int
	NormTime   float64
	NormEnergy float64
	NormEDP    float64
}

// Fig12 reproduces Figure 12: execution time, memory energy, and system EDP
// for Synergy and ITESP at 4 cores / 1 channel and 8 cores / 2 channels,
// normalized to the matching non-secure baseline (top-15 geomean).
func Fig12(o Options) ([]Fig12Row, error) { return runOne[[]Fig12Row](o, "fig12") }

func fig12Artifact(o Options) artifact {
	benches := o.benches(workload.TopMemoryIntensive())
	schemes := []string{"synergy", "itesp"}
	systems := []machine{{4, 1}, {8, 2}}
	var jobs []runspec.Named
	for _, sys := range systems {
		jobs = append(jobs, normJobs(o, o.machine(sys), schemes, benches)...)
	}
	render := func(w io.Writer, r runs) (any, any, error) {
		var rows []Fig12Row
		fmt.Fprintln(w, "Fig 12: core-count sensitivity (top-15 geomean)")
		fmt.Fprintf(w, "%-10s %6s %9s %10s %10s %10s\n", "scheme", "cores", "channels", "time", "energy", "edp")
		for _, sys := range systems {
			m := o.machine(sys)
			for _, s := range schemes {
				row := Fig12Row{Scheme: s, Cores: sys.cores, Channels: sys.channels,
					NormTime:   r.geo(m, benches, "nonsecure", s, cycles),
					NormEnergy: r.geo(m, benches, "nonsecure", s, joules),
					NormEDP:    r.geo(m, benches, "nonsecure", s, edp)}
				rows = append(rows, row)
				fmt.Fprintf(w, "%-10s %6d %9d %10.3f %10.3f %10.3f\n",
					s, sys.cores, sys.channels, row.NormTime, row.NormEnergy, row.NormEDP)
			}
		}
		return rows, rows, nil
	}
	return artifact{jobs: jobs, render: render}
}

// Fig13Row summarizes one (scheme, cache-size) configuration.
type Fig13Row struct {
	Scheme     string
	MetaKBCore int
	NormTime   float64
	NormEnergy float64
	NormEDP    float64
}

// Fig13 reproduces Figure 13: sensitivity to the per-core metadata cache
// budget (16, 32, 64 KB per core; top-15 geomean, 4 cores / 1 channel).
func Fig13(o Options) ([]Fig13Row, error) { return runOne[[]Fig13Row](o, "fig13") }

func fig13Artifact(o Options) artifact {
	benches := o.benches(workload.TopMemoryIntensive())
	sizes := []int{16, 32, 64}
	// config names a scheme's run at one cache budget.
	config := func(s string, kb int) string { return fmt.Sprintf("%s/%dKB", s, kb) }
	var jobs []runspec.Named
	for _, kb := range sizes {
		for _, b := range benches {
			for _, s := range []string{"nonsecure", "synergy", "itesp"} {
				jobs = append(jobs, runspec.Named{Key: paperMachine.key(config(s, kb), b), Spec: runspec.Spec{
					Scheme: s, Benchmark: b, Cores: 4, Channels: 1,
					OpsPerCore: o.ops(), Seed: o.seed(), MetaKBPerCore: kb,
				}})
			}
		}
	}
	render := func(w io.Writer, r runs) (any, any, error) {
		var rows []Fig13Row
		fmt.Fprintln(w, "Fig 13: metadata cache size sensitivity (top-15 geomean)")
		fmt.Fprintf(w, "%-10s %8s %10s %10s %10s\n", "scheme", "KB/core", "time", "energy", "edp")
		for _, kb := range sizes {
			for _, s := range []string{"synergy", "itesp"} {
				base, cur := config("nonsecure", kb), config(s, kb)
				row := Fig13Row{Scheme: s, MetaKBCore: kb,
					NormTime:   r.geo(paperMachine, benches, base, cur, cycles),
					NormEnergy: r.geo(paperMachine, benches, base, cur, joules),
					NormEDP:    r.geo(paperMachine, benches, base, cur, edp)}
				rows = append(rows, row)
				fmt.Fprintf(w, "%-10s %8d %10.3f %10.3f %10.3f\n", s, kb, row.NormTime, row.NormEnergy, row.NormEDP)
			}
		}
		return rows, rows, nil
	}
	return artifact{jobs: jobs, render: render}
}

// Fig15Row summarizes ITESP under one address-mapping policy.
type Fig15Row struct {
	Policy string
	// ImprovementPct is the top-15 performance improvement over Synergy
	// with its best (column) policy.
	ImprovementPct float64
	MetaMissRate   float64
	RowHitRate     float64
}

// Fig15 reproduces Figure 15: the impact of the four address-mapping
// policies on ITESP performance, metadata cache miss rate, and row-buffer
// hit rate (4 cores, 1 channel, top-15). The ITESP variant with four
// parities per leaf (Section III-E) is used, as in the paper's discussion.
func Fig15(o Options) ([]Fig15Row, error) { return runOne[[]Fig15Row](o, "fig15") }

func fig15Artifact(o Options) artifact {
	benches := o.benches(workload.TopMemoryIntensive())
	policies := []string{"column", "rank", "rbh2", "rbh4"}
	var jobs []runspec.Named
	for _, b := range benches {
		jobs = append(jobs, runspec.Named{Key: paperMachine.key("synergy/column", b), Spec: runspec.Spec{
			Scheme: "synergy", Benchmark: b, Cores: 4, Channels: 1,
			OpsPerCore: o.ops(), Seed: o.seed(), Policy: "column",
		}})
		for _, pol := range policies {
			jobs = append(jobs, runspec.Named{Key: paperMachine.key("itesp4p/"+pol, b), Spec: runspec.Spec{
				Scheme: "itesp4p", Benchmark: b, Cores: 4, Channels: 1,
				OpsPerCore: o.ops(), Seed: o.seed(), Policy: pol,
			}})
		}
	}
	render := func(w io.Writer, r runs) (any, any, error) {
		var rows []Fig15Row
		fmt.Fprintln(w, "Fig 15: ITESP address-mapping policies (top-15)")
		fmt.Fprintf(w, "%-8s %14s %14s %12s\n", "policy", "perf-vs-syn%", "metaMissRate", "rowHitRate")
		for _, pol := range policies {
			var miss, rbh []float64
			for _, b := range benches {
				cur := r[paperMachine.key("itesp4p/"+pol, b)]
				miss = append(miss, 1-cur.MetaCacheHitRate)
				rbh = append(rbh, cur.RowHitRate)
			}
			// Performance is inverse time: Synergy's cycles over ITESP's.
			perf := r.geo(paperMachine, benches, "itesp4p/"+pol, "synergy/column", cycles)
			row := Fig15Row{Policy: pol,
				ImprovementPct: 100 * (perf - 1),
				MetaMissRate:   stats.ArithMean(miss),
				RowHitRate:     stats.ArithMean(rbh)}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-8s %14.1f %14.3f %12.3f\n", row.Policy, row.ImprovementPct, row.MetaMissRate, row.RowHitRate)
		}
		return rows, rows, nil
	}
	return artifact{jobs: jobs, render: render}
}

// Fig5 reproduces Figure 5: the covert channel on interleaved (A) vs
// isolated (B) enclave pages.
func Fig5(o Options) (interleaved, isolated []covert.Point) {
	r, _ := runOne[map[string][]covert.Point](o, "fig5") // no runs, so it cannot fail
	return r["interleaved"], r["isolated"]
}

func fig5Artifact(o Options) artifact {
	render := func(w io.Writer, _ runs) (any, any, error) {
		res := map[string][]covert.Point{}
		for _, iso := range []bool{false, true} {
			cfg := covert.DefaultConfig(iso)
			cfg.Seed = o.seed()
			pts := covert.Run(cfg)
			label, name := "A: interleaved (shared tree)", "interleaved"
			if iso {
				label, name = "B: isolated trees", "isolated"
			}
			res[name] = pts
			fmt.Fprintf(w, "Fig 5%s\n", label)
			fmt.Fprintf(w, "%8s %12s %12s %12s %12s %8s %12s\n",
				"blocks", "lat0.min", "lat0.max", "lat1.min", "lat1.max", "chan?", "bps")
			for _, p := range pts {
				fmt.Fprintf(w, "%8d %12.0f %12.0f %12.0f %12.0f %8v %12.0f\n",
					p.Blocks, p.Lat0Min, p.Lat0Max, p.Lat1Min, p.Lat1Max, p.Distinguishable, p.BandwidthBps)
			}
		}
		return res, res, nil
	}
	return artifact{render: render}
}
