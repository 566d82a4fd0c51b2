package integrity

import (
	"encoding/binary"
	"fmt"

	"repro/internal/stats"
)

// This file implements Morphable-Counter-style counter blocks
// (Saileshwar et al., MICRO 2018 — the paper's reference [33]) as a
// concrete, bit-exact encoding rather than an abstract overflow model. A
// 64-byte node holds a 64-bit shared (global) counter, a 64-bit embedded
// hash, and a payload of per-block local counters that can *morph* between
// formats:
//
//   - a uniform format: arity x smallBits counters, and
//   - outlier formats: most counters narrow, plus a few wide outliers
//     stored as (index, value) pairs — exploiting the skew in counter
//     values that uniform encodings waste bits on.
//
// A write first tries rebasing (lifting the shared counter by the minimum
// local). If no format can represent the residuals, the node overflows:
// the global counter advances past every local and all blocks re-encrypt.

// MorphFormat is one payload encoding.
type MorphFormat struct {
	Name      string
	SmallBits int // width of the narrow counters
	LargeBits int // width of outlier values (0 = no outliers)
	MaxLarge  int // number of outlier slots
}

// payloadCost returns the encoded bit cost of the format for a given arity:
// the narrow fields, the outlier records (index + value each), and — for
// outlier formats — the outlier-count field.
func (f MorphFormat) payloadCost(arity, idxBits int) int {
	small := arity * f.SmallBits // outlier slots still carry a narrow field
	large := f.MaxLarge * (idxBits + f.LargeBits)
	if f.MaxLarge > 0 {
		large += idxBits + 1 // outlier count
	}
	return small + large
}

// fits reports whether the residual locals can be represented: at most
// MaxLarge values need more than SmallBits, and none needs more than
// LargeBits.
func (f MorphFormat) fits(locals []uint64) bool {
	smallMax := uint64(1)<<uint(f.SmallBits) - 1
	largeMax := uint64(1)<<uint(f.LargeBits) - 1
	outliers := 0
	for _, v := range locals {
		if v > smallMax {
			if f.LargeBits == 0 || v > largeMax {
				return false
			}
			outliers++
			if outliers > f.MaxLarge {
				return false
			}
		}
	}
	return true
}

// MorphableBlock is one node's counters with morphable encoding.
type MorphableBlock struct {
	arity       int
	idxBits     int
	payloadBits int
	formats     []MorphFormat
	base        uint64
	locals      []uint64
}

// morphFormats returns the format menu for the given arity and payload
// budget, widest-small-counter first (preferred when it fits: no index
// overhead and maximal headroom).
func morphFormats(arity, payloadBits, idxBits int) []MorphFormat {
	candidates := []MorphFormat{
		{Name: "uniform", SmallBits: payloadBits / arity},
		{Name: "outlier4", LargeBits: 12, MaxLarge: 4},
		{Name: "outlier8", LargeBits: 10, MaxLarge: 8},
	}
	var out []MorphFormat
	for _, f := range candidates {
		if f.MaxLarge > 0 {
			// Give the narrow counters whatever is left after the outlier
			// records and the count field.
			rem := payloadBits - f.MaxLarge*(idxBits+f.LargeBits) - (idxBits + 1)
			f.SmallBits = rem / arity
			if f.SmallBits < 1 {
				continue
			}
		}
		if f.payloadCost(arity, idxBits) <= payloadBits && f.SmallBits >= 1 {
			out = append(out, f)
		}
	}
	return out
}

// NewMorphableBlock builds a counter node for the given arity with a
// payload budget in bits (a 64-byte node minus the 64-bit global counter
// and 64-bit hash leaves 384 bits, minus any embedded parity fields).
func NewMorphableBlock(arity, payloadBits int) *MorphableBlock {
	if arity <= 0 || payloadBits <= 0 {
		panic("integrity: bad morphable geometry")
	}
	idxBits := 0
	for 1<<uint(idxBits) < arity {
		idxBits++
	}
	fs := morphFormats(arity, payloadBits, idxBits)
	if len(fs) == 0 {
		panic(fmt.Sprintf("integrity: no format fits arity %d in %d bits", arity, payloadBits))
	}
	return &MorphableBlock{
		arity:       arity,
		idxBits:     idxBits,
		payloadBits: payloadBits,
		formats:     fs,
		locals:      make([]uint64, arity),
	}
}

// Value returns the counter of a slot.
func (b *MorphableBlock) Value(slot int) uint64 { return b.base + b.locals[slot] }

// CurrentFormat returns the first format that can represent the residuals.
func (b *MorphableBlock) CurrentFormat() (MorphFormat, bool) {
	for _, f := range b.formats {
		if f.fits(b.locals) {
			return f, true
		}
	}
	return MorphFormat{}, false
}

// Write increments a slot. It returns true if the node overflowed (no
// format fits even after rebasing) and re-encrypted: the base advances past
// every local and all locals reset.
func (b *MorphableBlock) Write(slot int) (overflowed bool) {
	b.locals[slot]++
	if _, ok := b.CurrentFormat(); ok {
		return false
	}
	// Rebase to the minimum local.
	min := b.locals[0]
	for _, v := range b.locals[1:] {
		if v < min {
			min = v
		}
	}
	if min > 0 {
		b.base += min
		for i := range b.locals {
			b.locals[i] -= min
		}
		if _, ok := b.CurrentFormat(); ok {
			return false
		}
	}
	// Overflow: re-encrypt.
	max := b.locals[0]
	for _, v := range b.locals[1:] {
		if v > max {
			max = v
		}
	}
	b.base += max + 1
	for i := range b.locals {
		b.locals[i] = 0
	}
	return true
}

// bitWriter packs little-endian bit fields.
type bitWriter struct {
	buf []byte
	pos int
}

func (w *bitWriter) put(v uint64, bits int) {
	for i := 0; i < bits; i++ {
		if v>>uint(i)&1 == 1 {
			w.buf[(w.pos+i)/8] |= 1 << uint((w.pos+i)%8)
		}
	}
	w.pos += bits
}

type bitReader struct {
	buf []byte
	pos int
}

func (r *bitReader) get(bits int) uint64 {
	var v uint64
	for i := 0; i < bits; i++ {
		if r.buf[(r.pos+i)/8]>>uint((r.pos+i)%8)&1 == 1 {
			v |= 1 << uint(i)
		}
	}
	r.pos += bits
	return v
}

// Encode serializes the node: 1 byte format id, 8 bytes base, then the
// bit-packed payload in the current format. It panics if no format fits
// (callers must Write first, which guarantees a representable state).
func (b *MorphableBlock) Encode() []byte {
	f, ok := b.CurrentFormat()
	if !ok {
		panic("integrity: unencodable morphable block")
	}
	fid := 0
	for i, cand := range b.formats {
		if cand.Name == f.Name {
			fid = i
			break
		}
	}
	out := make([]byte, 1+8+(b.payloadBits+7)/8)
	out[0] = byte(fid)
	binary.LittleEndian.PutUint64(out[1:], b.base)
	w := &bitWriter{buf: out[9:]}
	smallMax := uint64(1)<<uint(f.SmallBits) - 1
	if f.MaxLarge == 0 {
		for _, v := range b.locals {
			w.put(v, f.SmallBits)
		}
		return out
	}
	// Outlier format: narrow fields for everyone (outliers write 0 there),
	// then (count, index, value) outlier records.
	type outlier struct {
		idx int
		v   uint64
	}
	var outs []outlier
	for i, v := range b.locals {
		if v > smallMax {
			outs = append(outs, outlier{i, v})
			w.put(0, f.SmallBits)
		} else {
			w.put(v, f.SmallBits)
		}
	}
	w.put(uint64(len(outs)), b.idxBits+1)
	for _, o := range outs {
		w.put(uint64(o.idx), b.idxBits)
		w.put(o.v, f.LargeBits)
	}
	return out
}

// DecodeMorphable reconstructs a node from Encode's output.
func DecodeMorphable(data []byte, arity, payloadBits int) (*MorphableBlock, error) {
	b := NewMorphableBlock(arity, payloadBits)
	if len(data) < 9 {
		return nil, fmt.Errorf("integrity: short morphable encoding (%d bytes)", len(data))
	}
	fid := int(data[0])
	if fid >= len(b.formats) {
		return nil, fmt.Errorf("integrity: unknown format id %d", fid)
	}
	f := b.formats[fid]
	b.base = binary.LittleEndian.Uint64(data[1:])
	r := &bitReader{buf: data[9:]}
	for i := 0; i < arity; i++ {
		b.locals[i] = r.get(f.SmallBits)
	}
	if f.MaxLarge > 0 {
		n := int(r.get(b.idxBits + 1))
		if n > f.MaxLarge {
			return nil, fmt.Errorf("integrity: %d outliers exceed format max %d", n, f.MaxLarge)
		}
		for i := 0; i < n; i++ {
			idx := int(r.get(b.idxBits))
			if idx >= arity {
				return nil, fmt.Errorf("integrity: outlier index %d out of range", idx)
			}
			b.locals[idx] = r.get(f.LargeBits)
		}
	}
	return b, nil
}

// MorphableStore adapts MorphableBlocks to the counter-store interface used
// by the engine, one node per integrity-tree leaf.
type MorphableStore struct {
	geom    Geometry
	payload int
	nodes   map[uint64]*MorphableBlock

	Writes    stats.Counter
	Overflows stats.Counter
}

// NewMorphableStore builds a store for the given tree geometry. The payload
// budget subtracts the embedded parity fields from the 448 bits a 64-byte
// node offers beside its global counter (BMT-style, hash in the parent).
func NewMorphableStore(geom Geometry) *MorphableStore {
	payload := 448 - 64*geom.ParitiesPerLeaf
	if payload < geom.LeafArity {
		payload = geom.LeafArity // degenerate floor: 1 bit per counter
	}
	return &MorphableStore{
		geom:    geom,
		payload: payload,
		nodes:   map[uint64]*MorphableBlock{},
	}
}

func (s *MorphableStore) node(leaf uint64) *MorphableBlock {
	n := s.nodes[leaf]
	if n == nil {
		n = NewMorphableBlock(s.geom.LeafArity, s.payload)
		s.nodes[leaf] = n
	}
	return n
}

// Write increments the counter of a tree-local block and reports overflow.
func (s *MorphableStore) Write(localBlock uint64) bool {
	s.Writes.Inc()
	leaf := localBlock / uint64(s.geom.LeafArity)
	slot := int(localBlock % uint64(s.geom.LeafArity))
	if s.node(leaf).Write(slot) {
		s.Overflows.Inc()
		return true
	}
	return false
}

// Value returns the counter of a tree-local block.
func (s *MorphableStore) Value(localBlock uint64) uint64 {
	leaf := localBlock / uint64(s.geom.LeafArity)
	n := s.nodes[leaf]
	if n == nil {
		return 0
	}
	return n.Value(int(localBlock % uint64(s.geom.LeafArity)))
}

// OverflowRate returns re-encryptions per write.
func (s *MorphableStore) OverflowRate() float64 {
	if s.Writes.Value() == 0 {
		return 0
	}
	return float64(s.Overflows.Value()) / float64(s.Writes.Value())
}

// OverflowCount returns the number of re-encryption events so far.
func (s *MorphableStore) OverflowCount() uint64 { return s.Overflows.Value() }
