package parity

import (
	"fmt"

	"repro/internal/mem"
)

// FieldsPerBlock is the number of 64-bit parity fields in one 64-byte
// parity metadata block (for the non-embedded shared-parity organization).
const FieldsPerBlock = mem.BlockSize / 8

// Layout maps data blocks onto shared-parity fields.
//
// Share (N) is the number of data blocks XOR-ed into one field; Stride (S)
// is the number of consecutive physical blocks that map to the same DRAM
// rank under the active address-mapping policy (Column: a whole row, RBH4:
// 4, RBH2: 2, Rank: 1). Blocks sharing a field must reside in different
// ranks (Section III-G), so grouping strides by S: blocks b and b' share a
// field iff b % S == b' % S and b/(S*N) == b'/(S*N). With S = 1 and N = 1
// this degenerates to the per-block Synergy parity.
type Layout struct {
	Share  int
	Stride int
	// Base is the start of the parity metadata region (unused when parity
	// is embedded in the integrity tree).
	Base mem.PhysAddr
}

// NewLayout validates and returns a Layout.
func NewLayout(share, stride int, base mem.PhysAddr) Layout {
	if share <= 0 || stride <= 0 {
		panic(fmt.Sprintf("parity: share=%d stride=%d must be positive", share, stride))
	}
	return Layout{Share: share, Stride: stride, Base: base}
}

// FieldIndex returns the global index of the parity field protecting the
// given data block.
func (l Layout) FieldIndex(dataBlock uint64) uint64 {
	s, n := uint64(l.Stride), uint64(l.Share)
	return dataBlock/(s*n)*s + dataBlock%s
}

// GroupPosition returns the block's position (0..Share-1) within its parity
// group.
func (l Layout) GroupPosition(dataBlock uint64) int {
	return int(dataBlock / uint64(l.Stride) % uint64(l.Share))
}

// GroupMembers returns the data-block numbers of every member of the parity
// group containing dataBlock, in group-position order.
func (l Layout) GroupMembers(dataBlock uint64) []uint64 {
	s, n := uint64(l.Stride), uint64(l.Share)
	base := dataBlock/(s*n)*(s*n) + dataBlock%s
	members := make([]uint64, l.Share)
	for i := range members {
		members[i] = base + uint64(i)*s
	}
	return members
}

// BlockAddr returns the physical address of the 64-byte parity metadata
// block holding the field for dataBlock (non-embedded organization; eight
// fields per metadata block).
func (l Layout) BlockAddr(dataBlock uint64) mem.PhysAddr {
	return l.Base + mem.PhysAddr(l.FieldIndex(dataBlock)/FieldsPerBlock*mem.BlockSize)
}

// StorageBlocks returns the number of 64-byte parity metadata blocks needed
// to protect dataBlocks data blocks.
func (l Layout) StorageBlocks(dataBlocks uint64) uint64 {
	fields := (dataBlocks + uint64(l.Share) - 1) / uint64(l.Share)
	return (fields + FieldsPerBlock - 1) / FieldsPerBlock
}
