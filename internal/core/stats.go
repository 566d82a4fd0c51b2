package core

import (
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stats"
)

// PatternCase classifies the metadata accesses triggered by one data
// operation, reproducing the categories of Figure 3.
type PatternCase int

const (
	// CaseA: no metadata memory access (everything hit on-chip).
	CaseA PatternCase = iota
	// CaseB: MAC fetch only.
	CaseB
	// CaseC: counter (leaf) fetch only.
	CaseC
	// CaseD: MAC and leaf fetches (the correlated-miss case the paper
	// highlights: ~30% of data misses).
	CaseD
	// CaseE: leaf and parent fetches.
	CaseE
	// CaseF: MAC, leaf, and parent fetches.
	CaseF
	// CaseG: leaf, parent, and grandparent (or deeper) fetches.
	CaseG
	// CaseH: MAC plus three or more tree-level fetches.
	CaseH
	numCases
)

// NumPatternCases is the number of Figure 3 categories.
const NumPatternCases = int(numCases)

// String implements fmt.Stringer.
func (c PatternCase) String() string {
	if c < 0 || c >= numCases {
		return "?"
	}
	return string(rune('A' + int(c)))
}

// classify maps (MAC missed, tree levels fetched) to a Figure 3 case.
func classify(macMissed bool, depth int) PatternCase {
	var base PatternCase
	switch {
	case depth == 0:
		base = CaseA
	case depth == 1:
		base = CaseC
	case depth == 2:
		base = CaseE
	default:
		base = CaseG
	}
	if macMissed {
		base++ // A->B, C->D, E->F, G->H
	}
	return base
}

// Stats aggregates engine-side event counts. DRAM-side counts (row hits,
// latencies) live in dram.ChannelStats; these count metadata transactions
// at generation time, which is what Figures 3 and 9 report.
type Stats struct {
	DataReads  stats.Counter
	DataWrites stats.Counter

	// MetaReads/MetaWrites count generated metadata transactions by kind.
	MetaReads  [mem.NumKinds]stats.Counter
	MetaWrites [mem.NumKinds]stats.Counter

	// Patterns histograms data operations by Figure 3 case, split by
	// direction: Patterns[0] counts reads, Patterns[1] writes. Writes see
	// deeper tree activity than reads under write-allocate metadata
	// caching; PatternFrac reports the combined Figure 3 distribution.
	Patterns [2][NumPatternCases]stats.Counter

	// ParityRMW counts read-modify-write parity updates (shared parity).
	ParityRMW stats.Counter
	// ParitySplitLeaf counts embedded-parity writes whose parity leaf
	// differed from the counter leaf (mapping-policy mismatch, Fig 15).
	ParitySplitLeaf stats.Counter
}

func (s *Stats) recordPattern(isWrite, macMissed bool, depth int) {
	w := 0
	if isWrite {
		w = 1
	}
	s.Patterns[w][classify(macMissed, depth)].Inc()
}

// DataOps returns total data operations.
func (s *Stats) DataOps() uint64 { return s.DataReads.Value() + s.DataWrites.Value() }

// MetaAccessesPerOp returns the average number of additional (metadata)
// memory transactions per data operation — the Figure 9 metric.
func (s *Stats) MetaAccessesPerOp() float64 {
	ops := s.DataOps()
	if ops == 0 {
		return 0
	}
	var total uint64
	for k := 0; k < mem.NumKinds; k++ {
		if mem.Kind(k) == mem.KindData {
			continue
		}
		total += s.MetaReads[k].Value() + s.MetaWrites[k].Value()
	}
	return float64(total) / float64(ops)
}

// KindPerOp returns metadata transactions of one kind per data operation,
// split into reads and writes.
func (s *Stats) KindPerOp(k mem.Kind) (reads, writes float64) {
	ops := s.DataOps()
	if ops == 0 {
		return 0, 0
	}
	return float64(s.MetaReads[k].Value()) / float64(ops),
		float64(s.MetaWrites[k].Value()) / float64(ops)
}

// PatternFrac returns the fraction of data operations in each Figure 3
// case, reads and writes combined.
func (s *Stats) PatternFrac() [NumPatternCases]float64 {
	var out [NumPatternCases]float64
	ops := s.DataOps()
	if ops == 0 {
		return out
	}
	for i := range out {
		n := s.Patterns[0][i].Value() + s.Patterns[1][i].Value()
		out[i] = float64(n) / float64(ops)
	}
	return out
}

// Register exposes every engine-side counter in an observability registry.
func (s *Stats) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("engine_data_ops_total", obs.Labels{"op": "read"}, &s.DataReads)
	reg.Counter("engine_data_ops_total", obs.Labels{"op": "write"}, &s.DataWrites)
	for k := 0; k < mem.NumKinds; k++ {
		if mem.Kind(k) == mem.KindData {
			continue
		}
		kind := mem.Kind(k).String()
		reg.Counter("engine_meta_txns_total", obs.Labels{"kind": kind, "op": "read"}, &s.MetaReads[k])
		reg.Counter("engine_meta_txns_total", obs.Labels{"kind": kind, "op": "write"}, &s.MetaWrites[k])
	}
	for w, op := range [...]string{"read", "write"} {
		for c := 0; c < NumPatternCases; c++ {
			reg.Counter("engine_pattern_ops_total",
				obs.Labels{"case": PatternCase(c).String(), "op": op}, &s.Patterns[w][c])
		}
	}
	reg.Counter("engine_parity_rmw_total", nil, &s.ParityRMW)
	reg.Counter("engine_parity_split_leaf_total", nil, &s.ParitySplitLeaf)
	reg.Gauge("engine_meta_accesses_per_op", nil, s.MetaAccessesPerOp)
}
