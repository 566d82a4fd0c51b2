package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/fault"
	"repro/internal/reliability"
	"repro/internal/runspec"
)

// Table II timing-domain campaign shape. The span is sized so that the
// paper's structural contrast dominates the outcome: with ~64 chip faults
// landed uniformly over 2048 blocks, ITESP's 16-block share groups see many
// concurrent same-group pairs (shared parity defeated, Case 4) while
// Synergy's per-block parity only fails when one block loses two chips.
const (
	t2Seeds  = 5    // Monte-Carlo repetitions per scheme
	t2Faults = 64   // chip-kill events per run
	t2Span   = 2048 // injection/scrub span in blocks
)

// Table2TimingRow aggregates one scheme's campaign outcome over all seeds.
type Table2TimingRow struct {
	Scheme          string  `json:"scheme"`
	Runs            int     `json:"runs"`
	Injected        uint64  `json:"injected"`
	Detected        uint64  `json:"detected"`
	Corrected       uint64  `json:"corrected"`
	DUE             uint64  `json:"due"`
	SDC             uint64  `json:"sdc"`
	Latent          uint64  `json:"latent"`
	CorrectionReads uint64  `json:"correction_reads"`
	ScrubReads      uint64  `json:"scrub_reads"`
	MeanDetect      float64 `json:"mean_detect_cycles"`
	MeanRepair      float64 `json:"mean_repair_cycles"`
	DUEPerRun       float64 `json:"due_per_run"`
}

// Table2TimingResult is the timing-domain counterpart of Table II: instead
// of the analytic rates, each scheme's correction pipeline runs for real in
// the simulator's DRAM-cycle domain and the DUEs are counted.
type Table2TimingResult struct {
	Synergy, ITESP Table2TimingRow
	// MeasuredDUERatio is ITESP DUEs over Synergy DUEs as measured
	// (+Inf when Synergy saw none); AnalyticDUERatio is the same ratio
	// from the Table II Case-4 closed forms.
	MeasuredDUERatio float64 `json:"measured_due_ratio"`
	AnalyticDUERatio float64 `json:"analytic_due_ratio"`
	// OrderingOK is the acceptance check: the shared-parity scheme must
	// expose strictly more DUEs than per-rank parity.
	OrderingOK bool `json:"ordering_ok"`
}

// Table2Timing measures Table II's Synergy-vs-ITESP reliability contrast in
// the timing domain: seeded chip-kill campaigns run against both schemes'
// full detect→correct→scrub pipeline, and Case-4 DUEs emerge from the
// actual temporal overlap of faults within a parity share group — not from
// an analytic formula. The campaign accelerates the paper's FIT-scale fault
// processes (see EXPERIMENTS.md), so the validated claim is the relative
// ordering and its rough scale, not absolute DUE rates.
func Table2Timing(o Options) (*Table2TimingResult, error) {
	return runOne[*Table2TimingResult](o, "table2_timing")
}

func table2TimingArtifact(o Options) artifact {
	bench := o.benches([]string{"mcf"})[0]
	cores := o.cores(2)
	// Campaign knobs scale with run length so every injection fires and at
	// least one full scrub sweep completes before the trace drains. The
	// cycle estimate is a conservative lower bound (mcf is memory-bound, so
	// the DRAM clock advances at least a few cycles per op).
	estCycles := o.ops() * uint64(cores) * 4
	start := estCycles / 20
	interval := estCycles / 2 / t2Faults
	scrub := estCycles / (6 * t2Span)
	if scrub < 2 {
		scrub = 2
	}

	var jobs []runspec.Named
	for _, scheme := range []string{"synergy", "itesp"} {
		for i := 0; i < t2Seeds; i++ {
			fc := fault.Config{
				N: t2Faults, Kind: "chip",
				Seed:       o.seed() + int64(i)*1009 + 7,
				StartCycle: start, Interval: interval,
				SpanBlocks: t2Span, ScrubInterval: scrub,
			}
			jobs = append(jobs, runspec.Named{
				Key: fmt.Sprintf("t2timing/%s/seed%d", scheme, i),
				Spec: runspec.Spec{
					Scheme:     scheme,
					Benchmark:  bench,
					Cores:      cores,
					Channels:   o.Channels,
					OpsPerCore: o.ops(),
					Seed:       o.seed() + int64(i),
					Faults:     &fc,
				},
			})
		}
	}
	render := func(w io.Writer, r runs) (any, any, error) { return renderTable2Timing(w, r, scrub) }
	return artifact{jobs: jobs, render: render}
}

// renderTable2Timing aggregates each scheme's campaigns over all seeds and
// prints the comparison.
func renderTable2Timing(w io.Writer, r runs, scrub uint64) (any, any, error) {
	aggregate := func(scheme string) (Table2TimingRow, error) {
		row := Table2TimingRow{Scheme: scheme}
		var detSum, repSum float64
		for i := 0; i < t2Seeds; i++ {
			s := r[fmt.Sprintf("t2timing/%s/seed%d", scheme, i)]
			if s == nil || s.Faults == nil {
				return row, fmt.Errorf("table2timing: %s seed %d has no fault summary", scheme, i)
			}
			fs := s.Faults
			if err := fs.CheckInvariant(); err != nil {
				return row, fmt.Errorf("table2timing: %s seed %d: %w", scheme, i, err)
			}
			row.Runs++
			row.Injected += fs.Injected
			row.Detected += fs.Detected
			row.Corrected += fs.Corrected()
			row.DUE += fs.DUE
			row.SDC += fs.SDC
			row.Latent += fs.Latent
			row.CorrectionReads += fs.CorrectionReads
			row.ScrubReads += fs.ScrubReads
			detSum += fs.MeanDetect * float64(fs.Detected)
			repSum += fs.MeanRepair * float64(fs.Corrected())
		}
		if row.Detected > 0 {
			row.MeanDetect = detSum / float64(row.Detected)
		}
		if row.Corrected > 0 {
			row.MeanRepair = repSum / float64(row.Corrected)
		}
		row.DUEPerRun = float64(row.DUE) / float64(row.Runs)
		return row, nil
	}
	res := &Table2TimingResult{}
	var err error
	if res.Synergy, err = aggregate("synergy"); err != nil {
		return nil, nil, err
	}
	if res.ITESP, err = aggregate("itesp"); err != nil {
		return nil, nil, err
	}
	res.MeasuredDUERatio = math.Inf(1)
	if res.Synergy.DUE > 0 {
		res.MeasuredDUERatio = float64(res.ITESP.DUE) / float64(res.Synergy.DUE)
	}
	p := reliability.DefaultParams()
	res.AnalyticDUERatio = reliability.ITESP(p).DUEMultiChip / reliability.Synergy(p).DUEMultiChip
	res.OrderingOK = res.ITESP.DUE > res.Synergy.DUE

	fmt.Fprintf(w, "Table II (timing domain): %d seeds x %d chip faults over %d blocks, scrub every %d cycles\n",
		t2Seeds, t2Faults, t2Span, scrub)
	fmt.Fprintf(w, "%-10s %9s %9s %10s %6s %5s %7s %12s %12s\n",
		"scheme", "injected", "detected", "corrected", "due", "sdc", "latent", "detect(cyc)", "repair(cyc)")
	for _, row := range []Table2TimingRow{res.Synergy, res.ITESP} {
		fmt.Fprintf(w, "%-10s %9d %9d %10d %6d %5d %7d %12.0f %12.0f\n",
			row.Scheme, row.Injected, row.Detected, row.Corrected,
			row.DUE, row.SDC, row.Latent, row.MeanDetect, row.MeanRepair)
	}
	ratio := fmt.Sprintf("%.1f", res.MeasuredDUERatio)
	if math.IsInf(res.MeasuredDUERatio, 1) {
		ratio = "inf (Synergy saw no DUE)"
	}
	fmt.Fprintf(w, "\nDUE ratio ITESP/Synergy: measured %s, analytic Case-4 %.1f\n", ratio, res.AnalyticDUERatio)
	ok := "OK"
	if !res.OrderingOK {
		ok = "FAILED"
	}
	fmt.Fprintf(w, "relative ordering (ITESP shared parity > Synergy per-rank): %s\n", ok)
	return res, res, nil
}
