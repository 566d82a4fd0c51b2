package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/runspec"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig2Row is one benchmark's metadata-block utilization comparison between
// the Large (4-program, shared 64 KB cache, tree over all memory) and Small
// (1-program, 16 KB cache) models.
type Fig2Row struct {
	Benchmark string
	// UseLarge / UseSmall are hits per metadata block while resident.
	UseLarge, UseSmall float64
	// HitRateLarge is the Large model's metadata cache hit rate (the right
	// Y axis of Fig 2).
	HitRateLarge float64
}

// Fig2 reproduces Figure 2: metadata block utilization drops sharply in the
// multi-programmed shared-tree model versus a single isolated program.
func Fig2(o Options) ([]Fig2Row, error) { return runOne[[]Fig2Row](o, "fig2") }

// modelJobs declares the Large and Small VAULT models' runs of every
// benchmark, which Figs 2 and 3 both read.
func modelJobs(o Options, benches []string) []runspec.Named {
	var jobs []runspec.Named
	for _, b := range benches {
		jobs = append(jobs, runspec.Named{Key: "large/" + b, Spec: runspec.Spec{
			Scheme: "vault", Benchmark: b, Cores: 4, Channels: 1,
			OpsPerCore: o.ops(), Seed: o.seed(),
		}})
		jobs = append(jobs, runspec.Named{Key: "small/" + b, Spec: runspec.Spec{
			Scheme: "vault", Benchmark: b, Cores: 1, Channels: 1,
			OpsPerCore: o.ops(), Seed: o.seed(), DenseAlloc: true,
		}})
	}
	return jobs
}

func fig2Artifact(o Options) artifact {
	benches := o.benches(workload.TopMemoryIntensive())
	render := func(w io.Writer, r runs) (any, any, error) {
		var rows []Fig2Row
		fmt.Fprintln(w, "Fig 2: metadata block utilization (hits per block) and Large hit rate")
		fmt.Fprintf(w, "%-12s %10s %10s %12s\n", "benchmark", "use.large", "use.small", "hitrate.lg")
		var ratio []float64
		for _, b := range benches {
			lg, sm := r["large/"+b], r["small/"+b]
			row := Fig2Row{
				Benchmark:    b,
				UseLarge:     lg.MetaMeanUse,
				UseSmall:     sm.MetaMeanUse,
				HitRateLarge: lg.MetaCacheHitRate,
			}
			rows = append(rows, row)
			if row.UseLarge > 0 {
				ratio = append(ratio, row.UseSmall/row.UseLarge)
			}
			fmt.Fprintf(w, "%-12s %10.2f %10.2f %12.3f\n", row.Benchmark, row.UseLarge, row.UseSmall, row.HitRateLarge)
		}
		fmt.Fprintf(w, "average small/large utilization ratio: %.2fx (paper: 2.1x)\n", stats.ArithMean(ratio))
		return rows, rows, nil
	}
	return artifact{jobs: modelJobs(o, benches), render: render}
}

// Fig3Row is one benchmark's metadata access-pattern breakdown (cases A-H)
// in one model.
type Fig3Row struct {
	Benchmark string
	Model     string // "large" or "small"
	Frac      [core.NumPatternCases]float64
}

// Fig3 reproduces Figure 3: the breakdown of metadata accesses triggered by
// each data operation, for the Large and Small VAULT models. Cases: A none,
// B MAC only, C leaf only, D MAC+leaf, E leaf+parent, F MAC+leaf+parent,
// G three+ tree levels, H MAC + three+ tree levels.
func Fig3(o Options) ([]Fig3Row, error) { return runOne[[]Fig3Row](o, "fig3") }

// fig3Artifact reads Fig 2's runs.
func fig3Artifact(o Options) artifact {
	benches := o.benches(workload.TopMemoryIntensive())
	render := func(w io.Writer, r runs) (any, any, error) {
		var rows []Fig3Row
		fmt.Fprintln(w, "Fig 3: breakdown of metadata access patterns (fraction of data ops)")
		fmt.Fprintf(w, "%-12s %-6s", "benchmark", "model")
		for c := 0; c < core.NumPatternCases; c++ {
			fmt.Fprintf(w, " %6s", core.PatternCase(c))
		}
		fmt.Fprintln(w)
		var avg [2][core.NumPatternCases]float64
		var n [2]float64
		for _, b := range benches {
			for mi, model := range []string{"large", "small"} {
				res := r[model+"/"+b]
				var frac [core.NumPatternCases]float64
				copy(frac[:], res.PatternFrac)
				row := Fig3Row{Benchmark: b, Model: model, Frac: frac}
				rows = append(rows, row)
				fmt.Fprintf(w, "%-12s %-6s", b, model)
				for c := 0; c < core.NumPatternCases; c++ {
					fmt.Fprintf(w, " %6.3f", row.Frac[c])
					avg[mi][c] += row.Frac[c]
				}
				n[mi]++
				fmt.Fprintln(w)
			}
		}
		for mi, model := range []string{"large", "small"} {
			if n[mi] == 0 {
				continue
			}
			fmt.Fprintf(w, "%-12s %-6s", "average", model)
			for c := 0; c < core.NumPatternCases; c++ {
				fmt.Fprintf(w, " %6.3f", avg[mi][c]/n[mi])
			}
			fmt.Fprintln(w)
		}
		return rows, rows, nil
	}
	return artifact{jobs: modelJobs(o, benches), render: render}
}
