package experiments

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/workload"
)

// SweepSchemes runs every registered secure backend — the Figure 8 and
// Figure 11 families plus the post-paper ones (SERVAS, TME-Box) — through
// the normalized-execution-time machinery: one N-scheme comparison where N
// is whatever the registry holds, which is the ROADMAP's "every figure
// becomes an N-scheme comparison for free" unlock. Defaults to the top-15
// memory-intensive benchmarks at the paper's 4-core / 1-channel system.
func SweepSchemes(o Options) (*Fig8Result, error) { return runOne[*Fig8Result](o, "scheme_sweep") }

func sweepArtifact(o Options) artifact {
	// normJobs adds the non-secure baseline itself.
	schemes := slices.DeleteFunc(core.SchemeNames(), func(name string) bool { return name == "nonsecure" })
	title := fmt.Sprintf("Scheme sweep: normalized execution time, all %d registered backends", len(schemes))
	return normArtifact(o, title, schemes, workload.TopMemoryIntensive(), paperMachine, func(w io.Writer, _ *Fig8Result) {
		descs := core.Descriptions()
		fmt.Fprintln(w)
		for _, s := range schemes {
			fmt.Fprintf(w, "%-16s %s\n", s, descs[s])
		}
	})
}
