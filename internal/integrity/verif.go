package integrity

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/encrypt"
	"repro/internal/mac"
	"repro/internal/mem"
	"repro/internal/parity"
)

// ErrIntegrity is returned when verification of a read fails: the data MAC
// or any tree-node hash along the walk does not match.
var ErrIntegrity = errors.New("integrity: verification failed")

// VerifiedMemory is a fully functional model of the secure-memory data path:
// untrusted storage (data blocks, MACs, tree nodes) plus on-chip trusted
// state (keys and the tree root). Every Write updates counters, MACs,
// embedded parity, and the hash chain; every Read verifies the block's MAC
// and its entire ancestor chain against the on-chip root.
//
// It exists to validate the security claims of Section III-F (tampering and
// replay are detected) and to drive the reliability fault-injection study;
// the cycle-accurate engine in internal/core models the same structures
// without materializing bytes.
type VerifiedMemory struct {
	geom   Geometry
	macs   *mac.Engine
	treeK  mac.Key
	enc    *encrypt.Engine
	blocks uint64

	counters *CounterStore

	// Untrusted ("in DRAM") state, open to tampering via the Corrupt*
	// helpers. An absent key is a block or node never written since
	// enclave creation, which is distinct from a stored zero.
	data     map[uint64][mem.BlockSize]byte
	macStore map[uint64]uint64
	hashes   []map[uint64]uint64 // per tree level: node index -> embedded hash
	parities map[uint64]uint64   // leaf*ParitiesPerLeaf+slot -> field (ITESP)

	// Trusted on-chip state.
	rootCounter uint64
	levels      []levelInfo
	arities     []int
}

// NewVerifiedMemory builds a verified memory covering dataBlocks blocks.
// Data at rest is counter-mode encrypted (the confidentiality guarantee of
// Section II-A); the encryption key is derived from the two supplied keys.
func NewVerifiedMemory(geom Geometry, dataBlocks uint64, macKey, treeKey mac.Key) *VerifiedMemory {
	t := NewTree(geom, dataBlocks, 0)
	var encKey [16]byte
	binary.LittleEndian.PutUint64(encKey[0:], mac.Sum64Words(macKey, treeKey.K0, 0x656e63))
	binary.LittleEndian.PutUint64(encKey[8:], mac.Sum64Words(treeKey, macKey.K1, 0x656e63))
	vm := &VerifiedMemory{
		geom:     geom,
		macs:     mac.NewEngine(macKey),
		treeK:    treeKey,
		enc:      encrypt.New(encKey),
		blocks:   dataBlocks,
		counters: NewCounterStore(geom),
		data:     map[uint64][mem.BlockSize]byte{},
		macStore: map[uint64]uint64{},
		hashes:   make([]map[uint64]uint64, len(t.levels)),
		parities: map[uint64]uint64{},
		levels:   t.levels,
	}
	for l := 0; l < len(t.levels); l++ {
		vm.hashes[l] = map[uint64]uint64{}
		vm.arities = append(vm.arities, geom.arityAt(l))
	}
	return vm
}

// NumLevels returns the number of tree levels including the root level.
func (m *VerifiedMemory) NumLevels() int { return len(m.levels) }

// addrOf returns the physical address bound into a block's MAC.
func (m *VerifiedMemory) addrOf(block uint64) mem.PhysAddr {
	return mem.PhysAddr(block * mem.BlockSize)
}

// leafFor returns the leaf index of a data block.
func (m *VerifiedMemory) leafFor(block uint64) uint64 {
	return (block / uint64(m.geom.LeafArity)) % m.levels[0].nodes
}

// nodeBytes serializes the authenticated content of a tree node: for leaves
// this is the counter base, the local counters of all slots, and the
// embedded parity fields (which, per Section III-F, act as padding in the
// hash); for interior nodes it is the XOR-fold of child hashes, modeling
// the parent's dependence on all children.
func (m *VerifiedMemory) nodeWords(level int, idx uint64) []uint64 {
	if level == 0 {
		nc := m.counters.nodes[idx]
		words := make([]uint64, 0, 2+m.geom.LeafArity+m.geom.ParitiesPerLeaf)
		words = append(words, idx)
		if nc != nil {
			words = append(words, nc.base)
			words = append(words, nc.locals...)
		} else {
			words = append(words, 0)
			words = append(words, make([]uint64, m.geom.LeafArity)...)
		}
		for p := 0; p < m.geom.ParitiesPerLeaf; p++ {
			words = append(words, m.parities[idx*uint64(m.geom.ParitiesPerLeaf)+uint64(p)])
		}
		return words
	}
	// Interior node: authenticated content is its children's hashes.
	arity := uint64(m.arities[level-1])
	first := idx * arity
	words := make([]uint64, 0, arity+1)
	words = append(words, idx)
	for c := uint64(0); c < arity && first+c < m.levels[level-1].nodes; c++ {
		words = append(words, m.hashes[level-1][first+c])
	}
	return words
}

// recomputeHash recomputes the embedded hash of node (level, idx). The hash
// is keyed by the tree key and bound to the node position; the top node is
// additionally bound to the on-chip root counter so stale top nodes cannot
// be replayed.
func (m *VerifiedMemory) recomputeHash(level int, idx uint64) uint64 {
	words := m.nodeWords(level, idx)
	if level == len(m.levels)-1 {
		words = append(words, m.rootCounter)
	}
	words = append(words, uint64(level))
	return mac.Sum64Words(m.treeK, words...)
}

// refreshPath recomputes hashes from the given leaf up to the root.
func (m *VerifiedMemory) refreshPath(leaf uint64) {
	idx := leaf
	for level := 0; level < len(m.levels); level++ {
		m.hashes[level][idx] = m.recomputeHash(level, idx)
		idx /= uint64(m.arities[level])
	}
}

// parityIndex returns the key of the embedded parity field covering block,
// or false if this geometry has no embedded parity.
func (m *VerifiedMemory) parityIndex(block uint64) (uint64, bool) {
	if !m.geom.HasEmbeddedParity() {
		return 0, false
	}
	leaf := m.leafFor(block)
	slot := block % uint64(m.geom.LeafArity) / uint64(m.geom.ParityShare)
	return leaf*uint64(m.geom.ParitiesPerLeaf) + slot, true
}

// Write stores a data block: the counter is bumped, the plaintext is
// counter-mode encrypted, and the MAC (over the ciphertext), the embedded
// parity, and the hash chain are updated. It returns true if the write
// caused a local-counter overflow, which re-encrypts every resident block
// under the leaf with its fresh counter value — the work the overflow
// penalty pays for.
func (m *VerifiedMemory) Write(block uint64, data [mem.BlockSize]byte) (overflowed bool) {
	if block >= m.blocks {
		panic(fmt.Sprintf("integrity: block %d out of range", block))
	}
	leaf := m.leafFor(block)
	first := leaf * uint64(m.geom.LeafArity)
	// Capture pre-write counters: if the write overflows, resident
	// siblings must be decrypted under these values before re-encryption.
	oldCtr := make([]uint64, m.geom.LeafArity)
	for s := range oldCtr {
		oldCtr[s] = m.counters.Value(first + uint64(s))
	}

	m.rootCounter++
	overflowed = m.counters.Write(block)

	writeBlock := func(b uint64, plain [mem.BlockSize]byte) {
		ct := m.enc.Encrypt(m.addrOf(b), m.counters.Value(b), plain)
		if pi, ok := m.parityIndex(b); ok {
			if old, ok := m.data[b]; ok {
				m.parities[pi] ^= parity.BlockParity(&old)
			}
			m.parities[pi] ^= parity.BlockParity(&ct)
		}
		m.data[b] = ct
		m.macStore[b] = m.macs.Compute(m.addrOf(b), m.counters.Value(b), ct[:])
	}

	if overflowed {
		// Re-encryption sweep: every resident sibling's ciphertext and MAC
		// are regenerated under its new counter value.
		for s := uint64(0); s < uint64(m.geom.LeafArity); s++ {
			b := first + s
			if b == block || b >= m.blocks {
				continue
			}
			if d, ok := m.data[b]; ok {
				plain := m.enc.Decrypt(m.addrOf(b), oldCtr[s], d)
				writeBlock(b, plain)
			}
		}
	}
	writeBlock(block, data)
	m.refreshPath(leaf)
	return overflowed
}

// buildCiphertext returns the ciphertext an untouched (zero-plaintext)
// block holds under its current counter — the enclave-build-time contents.
func (m *VerifiedMemory) buildCiphertext(block uint64) [mem.BlockSize]byte {
	var zero [mem.BlockSize]byte
	return m.enc.Encrypt(m.addrOf(block), m.counters.Value(block), zero)
}

// storedMAC returns the MAC currently in (untrusted) memory for block. A
// block never written since enclave creation holds the build-time MAC of
// its encrypted zero contents, which we materialize lazily.
func (m *VerifiedMemory) storedMAC(block uint64) uint64 {
	if v, ok := m.macStore[block]; ok {
		return v
	}
	ct := m.buildCiphertext(block)
	return m.macs.Compute(m.addrOf(block), m.counters.Value(block), ct[:])
}

// Read fetches a block, verifies the MAC (over the ciphertext) and the full
// ancestor chain, then decrypts and returns the plaintext.
func (m *VerifiedMemory) Read(block uint64) ([mem.BlockSize]byte, error) {
	var zero [mem.BlockSize]byte
	if block >= m.blocks {
		return zero, fmt.Errorf("integrity: block %d out of range", block)
	}
	ct, ok := m.data[block]
	if !ok {
		ct = m.buildCiphertext(block)
	}
	if !m.macs.Verify(m.addrOf(block), m.counters.Value(block), ct[:], m.storedMAC(block)) {
		return zero, fmt.Errorf("%w: data MAC mismatch for block %d", ErrIntegrity, block)
	}
	idx := m.leafFor(block)
	for level := 0; level < len(m.levels); level++ {
		// A node never refreshed since enclave creation still holds its
		// build-time hash; we skip recomputation for such pristine nodes
		// (tampering with them creates an entry and is caught below).
		if stored, touched := m.hashes[level][idx]; touched && stored != m.recomputeHash(level, idx) {
			return zero, fmt.Errorf("%w: tree hash mismatch at level %d node %d", ErrIntegrity, level, idx)
		}
		idx /= uint64(m.arities[level])
	}
	return m.enc.Decrypt(m.addrOf(block), m.counters.Value(block), ct), nil
}

// RawData returns the stored (unverified) ciphertext of a block, as an
// attacker with DRAM access would see it.
func (m *VerifiedMemory) RawData(block uint64) [mem.BlockSize]byte {
	return m.data[block]
}

// CorruptData flips one bit of the stored block without updating any
// metadata (models tampering or a soft error).
func (m *VerifiedMemory) CorruptData(block uint64, bit int) {
	m.data[block] = parity.FlipBit(m.data[block], bit)
}

// CorruptMAC flips a bit of the stored MAC.
func (m *VerifiedMemory) CorruptMAC(block uint64) {
	m.macStore[block] ^= 1
}

// CorruptNodeHash flips a bit of a tree node's embedded hash (models
// tampering with the integrity tree itself).
func (m *VerifiedMemory) CorruptNodeHash(level int, idx uint64) {
	m.hashes[level][idx] ^= 1
}

// Snapshot captures a block's current untrusted state (data and MAC) so a
// test can later Replay it — the classic replay attack of Section II-A.
func (m *VerifiedMemory) Snapshot(block uint64) (data [mem.BlockSize]byte, macVal uint64) {
	return m.RawData(block), m.storedMAC(block)
}

// Replay restores a previously captured (data, MAC) pair without touching
// counters or the tree, as a malicious memory module would.
func (m *VerifiedMemory) Replay(block uint64, data [mem.BlockSize]byte, macVal uint64) {
	m.data[block] = data
	m.macStore[block] = macVal
}

// EmbeddedParity returns the embedded parity field covering block, and
// whether this geometry embeds parity.
func (m *VerifiedMemory) EmbeddedParity(block uint64) (uint64, bool) {
	pi, ok := m.parityIndex(block)
	if !ok {
		return 0, false
	}
	return m.parities[pi], true
}

// ParityGroup returns the other resident blocks whose data is XOR-ed into
// block's embedded parity field (its group siblings), in slot order.
func (m *VerifiedMemory) ParityGroup(block uint64) []uint64 {
	if !m.geom.HasEmbeddedParity() {
		return nil
	}
	leaf := m.leafFor(block)
	group := block % uint64(m.geom.LeafArity) / uint64(m.geom.ParityShare)
	first := leaf*uint64(m.geom.LeafArity) + group*uint64(m.geom.ParityShare)
	var out []uint64
	for i := uint64(0); i < uint64(m.geom.ParityShare); i++ {
		b := first + i
		if b != block && b < m.blocks {
			out = append(out, b)
		}
	}
	return out
}

// Overflows returns the number of re-encryption events so far.
func (m *VerifiedMemory) Overflows() uint64 { return m.counters.Overflows.Value() }
