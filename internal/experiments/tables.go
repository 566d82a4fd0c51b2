package experiments

import (
	"fmt"
	"io"

	"repro/internal/integrity"
	"repro/internal/mem"
	"repro/internal/reliability"
)

// Table1Row is one organization's metadata capacity overhead.
type Table1Row struct {
	Organization string
	TreePct      float64
	MACParityPct float64
	TotalPct     float64
}

// Table1 reproduces Table I: metadata memory capacity overheads. Tree
// overheads are computed from the actual tree layouts over a 64 GB data
// region; MAC/parity overheads follow the schemes' storage organization
// (VAULT stores 8 B MAC per 64 B block in memory; Synergy stores 8 B parity
// per block, doubled for x16 chips whose chipkill needs wider parity; ITESP
// embeds everything in the tree).
func Table1(o Options) []Table1Row {
	rows, _ := runOne[[]Table1Row](o, "table1") // no runs, so it cannot fail
	return rows
}

func table1Artifact(Options) artifact { return artifact{render: renderTable1} }

func renderTable1(w io.Writer, _ runs) (any, any, error) {
	dataBlocks := uint64(1) << 30 // 64 GB of 64-byte blocks
	pct := func(g integrity.Geometry) float64 {
		return 100 * integrity.NewTree(g, dataBlocks, 0).StorageOverhead(dataBlocks)
	}
	macPct := 100.0 * mem.MACSize / mem.BlockSize // 12.5%
	rows := []Table1Row{
		{"VAULT", pct(integrity.VAULT()), macPct, 0},
		{"Synergy128, x8 chips", pct(integrity.SYN128()), macPct, 0},
		{"Synergy128, x16 chips", pct(integrity.SYN128()), 2 * macPct, 0},
		{"ITESP64", pct(integrity.ITESP64()), 0, 0},
		{"ITESP128", pct(integrity.ITESP128()), 0, 0},
	}
	fmt.Fprintln(w, "Table I: metadata memory capacity overheads")
	fmt.Fprintf(w, "%-24s %10s %12s %8s\n", "organization", "tree%", "mac/parity%", "total%")
	for i := range rows {
		rows[i].TotalPct = rows[i].TreePct + rows[i].MACParityPct
		fmt.Fprintf(w, "%-24s %10.1f %12.1f %8.1f\n",
			rows[i].Organization, rows[i].TreePct, rows[i].MACParityPct, rows[i].TotalPct)
	}
	return rows, rows, nil
}

// Table2Result holds the analytic reliability rates and the Monte-Carlo
// mechanism cross-check.
type Table2Result struct {
	Synergy, ITESP reliability.Rates
	// Injection results validating the corrective mechanisms behind each
	// analytic case.
	SingleChip, SingleBit, TwoChips, ChipPlusSibling reliability.InjectionResult
}

// Table2 reproduces Table II: SDC and DUE rates per billion hours for
// Synergy and ITESP, with fault injection demonstrating the mechanisms
// (single-chip errors corrected; concurrent multi-chip errors become DUEs;
// a concurrent sibling error defeats shared-parity correction).
func Table2(o Options) Table2Result {
	res, _ := runOne[Table2Result](o, "table2") // no runs, so it cannot fail
	return res
}

func table2Artifact(o Options) artifact {
	return artifact{render: func(w io.Writer, _ runs) (any, any, error) { return renderTable2(w, o.seed()) }}
}

func renderTable2(w io.Writer, seed int64) (any, any, error) {
	p := reliability.DefaultParams()
	res := Table2Result{
		Synergy: reliability.Synergy(p),
		ITESP:   reliability.ITESP(p),
	}
	const trials = 300
	res.SingleChip = reliability.Inject(reliability.SingleChip, 16, trials, seed)
	res.SingleBit = reliability.Inject(reliability.SingleBit, 16, trials, seed+1)
	res.TwoChips = reliability.Inject(reliability.TwoChipsSameBlock, 16, trials, seed+2)
	res.ChipPlusSibling = reliability.Inject(reliability.ChipPlusSibling, 16, trials, seed+3)

	fmt.Fprintln(w, "Table II: SDC/DUE rates per billion hours (analytic)")
	fmt.Fprintf(w, "%-28s %12s %12s\n", "case", "Synergy", "ITESP")
	fmt.Fprintf(w, "%-28s %12.1e %12.1e\n", "Case 1: SDC (detection)", res.Synergy.SDCDetection, res.ITESP.SDCDetection)
	fmt.Fprintf(w, "%-28s %12.1e %12.1e\n", "Case 2: SDC (correction)", res.Synergy.SDCCorrection, res.ITESP.SDCCorrection)
	fmt.Fprintf(w, "%-28s %12.1e %12.1e\n", "Case 3: DUE (ambiguous)", res.Synergy.DUEAmbiguous, res.ITESP.DUEAmbiguous)
	fmt.Fprintf(w, "%-28s %12.1e %12.1e\n", "Case 4: DUE (multi-chip)", res.Synergy.DUEMultiChip, res.ITESP.DUEMultiChip)
	fmt.Fprintln(w, "\nFault injection (mechanism cross-check, 300 trials each):")
	report := func(name string, r reliability.InjectionResult) {
		fmt.Fprintf(w, "%-18s corrected=%d sdc=%d due=%d undetected=%d\n",
			name, r.Corrected, r.SDC, r.DUE, r.Undetected)
	}
	report("single chip", res.SingleChip)
	report("single bit", res.SingleBit)
	report("two chips", res.TwoChips)
	report("chip+sibling", res.ChipPlusSibling)
	return res, res, nil
}
