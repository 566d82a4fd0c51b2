package integrity

import (
	"repro/internal/stats"
)

// CounterStore tracks per-block encryption counters grouped into leaf nodes
// and models local-counter overflow with Morphable-Counter-style rebasing:
// each node keeps a per-node base (the shared global counter) plus small
// per-block local counters. When a local counter exceeds its width the node
// first tries to rebase the global counter to the minimum local value
// (cheap, exploits counter-value locality under streaming writes); if the
// overflowing local still does not fit, the node is re-encrypted — the
// global counter advances, all locals reset, and the caller is charged the
// geometry's overflow penalty (Section IV: 4K cycles for a 128-arity tree).
type CounterStore struct {
	geom  Geometry
	cap   uint64 // 2^LocalCounterBits
	nodes map[uint64]*nodeCounters

	// Writes counts counter increments; Overflows counts re-encryption
	// events; Rebases counts cheap global-counter rebases.
	Writes    stats.Counter
	Overflows stats.Counter
	Rebases   stats.Counter
}

type nodeCounters struct {
	base   uint64
	locals []uint64
}

// NewCounterStore creates an empty store for the given tree geometry.
func NewCounterStore(geom Geometry) *CounterStore {
	return &CounterStore{
		geom:  geom,
		cap:   1 << uint(geom.LocalCounterBits),
		nodes: map[uint64]*nodeCounters{},
	}
}

func (s *CounterStore) node(leaf uint64) *nodeCounters {
	n := s.nodes[leaf]
	if n == nil {
		n = &nodeCounters{locals: make([]uint64, s.geom.LeafArity)}
		s.nodes[leaf] = n
	}
	return n
}

func (s *CounterStore) slot(localBlock uint64) (leaf uint64, slot int) {
	return localBlock / uint64(s.geom.LeafArity), int(localBlock % uint64(s.geom.LeafArity))
}

// Value returns the current counter of the block: the unique, monotonically
// increasing (base, local) encoding used in MAC computation.
func (s *CounterStore) Value(localBlock uint64) uint64 {
	leaf, slot := s.slot(localBlock)
	n := s.nodes[leaf]
	if n == nil {
		return 0
	}
	return n.base + n.locals[slot]
}

// Write increments the block's counter and returns whether the increment
// caused a re-encryption overflow event.
func (s *CounterStore) Write(localBlock uint64) (overflowed bool) {
	s.Writes.Inc()
	leaf, slot := s.slot(localBlock)
	n := s.node(leaf)
	n.locals[slot]++
	if n.locals[slot] < s.cap {
		return false
	}
	// Try a Morphable-style rebase: lift the shared base by the minimum
	// local value. Under streaming writes all locals advance together and
	// this absorbs the overflow without re-encryption.
	min := n.locals[0]
	for _, l := range n.locals[1:] {
		if l < min {
			min = l
		}
	}
	if min > 0 {
		n.base += min
		for i := range n.locals {
			n.locals[i] -= min
		}
		s.Rebases.Inc()
		if n.locals[slot] < s.cap {
			return false
		}
	}
	// Re-encryption: the global counter advances past every local and all
	// locals reset; every block under the node is re-encrypted.
	maxLocal := n.locals[0]
	for _, l := range n.locals[1:] {
		if l > maxLocal {
			maxLocal = l
		}
	}
	n.base += maxLocal + 1
	for i := range n.locals {
		n.locals[i] = 0
	}
	s.Overflows.Inc()
	return true
}

// OverflowRate returns re-encryption events per counter write.
func (s *CounterStore) OverflowRate() float64 {
	if s.Writes.Value() == 0 {
		return 0
	}
	return float64(s.Overflows.Value()) / float64(s.Writes.Value())
}

// OverflowCount returns the number of re-encryption events so far.
func (s *CounterStore) OverflowCount() uint64 { return s.Overflows.Value() }
