package core

import (
	"repro/internal/enclave"
	"repro/internal/integrity"
	"repro/internal/mem"
	"repro/internal/parity"
)

// TrafficModel generates a scheme family's metadata layout and per-access
// traffic. Implementations are stateless strategy objects; all mutable
// state (trees, caches, region bases) lives on the Engine, so a model is
// safe to share across engines.
type TrafficModel interface {
	// Layout places the family's metadata regions above the data region
	// starting at next and initializes family state on e (trees, parity
	// layout, counter stores). dataBlocks is the size of the protected
	// data region in blocks. It returns the first address past the last
	// metadata region; New checks the result against DRAM capacity.
	Layout(e *Engine, dataBlocks uint64, next mem.PhysAddr) mem.PhysAddr
	// OnAccess emits the metadata traffic of one secure data access and
	// reports (macMissed, treeDepth) for Figure 3 pattern classification.
	OnAccess(e *Engine, core int, pa mem.PhysAddr, pte enclave.PTE, isWrite bool, id mem.EnclaveID, gid uint32) (macMissed bool, treeDepth int)
}

// trafficFor resolves the traffic model of a scheme from its structural
// fields alone, so a runspec SchemeOverride variant of a family routes to
// the same model as the scheme it was derived from.
func trafficFor(s Scheme) TrafficModel {
	switch {
	case s.KeyDomains > 0:
		return tmeboxTraffic{}
	case s.NoTree:
		return servasTraffic{}
	}
	return treeTraffic{}
}

// treeTraffic is the paper's standard pipeline shared by every
// VAULT/Synergy/ITESP variant: optional separate MAC region, counter /
// integrity-tree walk, and the scheme's parity mode. The golden
// cycle-equivalence captures pin its layout and access sequences.
type treeTraffic struct{}

func (treeTraffic) Layout(e *Engine, dataBlocks uint64, next mem.PhysAddr) mem.PhysAddr {
	cfg := e.cfg
	if !cfg.Scheme.MACInECC {
		e.macBase = next
		macBlocks := (dataBlocks + mac64PerBlock - 1) / mac64PerBlock
		next += mem.PhysAddr(macBlocks * mem.BlockSize)
	}

	e.parityStride = parityStride(cfg.Policy, shareOf(cfg.Scheme))
	switch cfg.Scheme.Parity {
	case ParityPerBlock:
		e.layout = parity.NewLayout(1, 1, 0)
		e.parityBase = next
		e.layout.Base = next
		next += mem.PhysAddr(e.layout.StorageBlocks(dataBlocks) * mem.BlockSize)
	case ParityShared:
		e.layout = parity.NewLayout(cfg.Scheme.ParityShare, e.parityStride, 0)
		e.parityBase = next
		e.layout.Base = next
		next += mem.PhysAddr(e.layout.StorageBlocks(dataBlocks) * mem.BlockSize)
	case ParityEmbedded:
		e.layout = parity.NewLayout(cfg.Scheme.Tree.ParityShare, e.parityStride, 0)
	}

	nTrees := 1
	treeBlocks := dataBlocks
	if cfg.Scheme.Isolated {
		nTrees = cfg.Cores
		treeBlocks = (dataBlocks + uint64(cfg.Cores) - 1) / uint64(cfg.Cores)
	}
	for i := 0; i < nTrees; i++ {
		t := integrity.NewTree(cfg.Scheme.Tree, treeBlocks, next)
		next += mem.PhysAddr(t.SizeBlocks() * mem.BlockSize)
		e.trees = append(e.trees, t)
		if cfg.Scheme.Tree.Morphable {
			e.counters = append(e.counters, integrity.NewMorphableStore(cfg.Scheme.Tree))
		} else {
			e.counters = append(e.counters, integrity.NewCounterStore(cfg.Scheme.Tree))
		}
	}
	return next
}

func (treeTraffic) OnAccess(e *Engine, core int, pa mem.PhysAddr, pte enclave.PTE, isWrite bool, id mem.EnclaveID, gid uint32) (bool, int) {
	treeIdx, local := e.treeLocal(core, pte, pa)
	macMissed := false
	if !e.scheme.MACInECC {
		macMissed = e.handleMAC(core, pa, isWrite, id, gid)
		if macMissed && e.tr != nil {
			e.tr.Instant(e.trTracks[core], "mac.fetch")
		}
	}
	depth := e.handleTree(treeIdx, local, isWrite, id, core, gid)
	if depth > 0 && e.tr != nil {
		e.tr.InstantArg(e.trTracks[core], "tree.walk", "levels", int64(depth))
	}
	if isWrite {
		if e.scheme.ModelOverflow {
			e.counters[treeIdx].Write(local)
		}
		e.handleParity(treeIdx, local, pa, id, core)
	}
	return macMissed, depth
}

// servasTraffic models SERVAS-style treeless authenticryption: every data
// block carries a MAC-with-tweak that provides integrity directly, so the
// only metadata region is the MAC region and a data access never walks a
// tree. The whole cache budget goes to the MAC cache (the scheme sets
// MACCacheKB to the full budget and MetaCacheKB to zero).
type servasTraffic struct{}

func (servasTraffic) Layout(e *Engine, dataBlocks uint64, next mem.PhysAddr) mem.PhysAddr {
	e.macBase = next
	macBlocks := (dataBlocks + mac64PerBlock - 1) / mac64PerBlock
	next += mem.PhysAddr(macBlocks * mem.BlockSize)
	return next
}

func (servasTraffic) OnAccess(e *Engine, core int, pa mem.PhysAddr, pte enclave.PTE, isWrite bool, id mem.EnclaveID, gid uint32) (bool, int) {
	macMissed := e.handleMAC(core, pa, isWrite, id, gid)
	if macMissed && e.tr != nil {
		e.tr.Instant(e.trTracks[core], "mac.fetch")
	}
	return macMissed, 0
}

// tmeboxTraffic models TME-Box-style multi-key encryption: isolation comes
// from per-domain encryption keys, with no tree and no MAC. The cost is
// the key path — a key table in DRAM fronted by an on-chip key cache (the
// MetaCacheKB budget). Key entries are modeled at keysPerBlock per block
// and fetched on a key-cache miss; keys are never dirty, so misses only
// read. A key fetch is accounted as KindCounter traffic (the existing
// "counter" metadata class) rather than a new mem.Kind, which keeps the
// Summary Kinds map — and with it the golden captures — shape-stable.
type tmeboxTraffic struct{}

// keysPerBlock is the number of key-table entries per 64-byte block: a
// 128-bit AES key plus a 128-bit tweak per domain.
const keysPerBlock = mem.BlockSize / 32

func (tmeboxTraffic) Layout(e *Engine, dataBlocks uint64, next mem.PhysAddr) mem.PhysAddr {
	e.keyBase = next
	keyBlocks := (uint64(e.cfg.Scheme.KeyDomains) + keysPerBlock - 1) / keysPerBlock
	next += mem.PhysAddr(keyBlocks * mem.BlockSize)
	return next
}

func (tmeboxTraffic) OnAccess(e *Engine, core int, pa mem.PhysAddr, pte enclave.PTE, isWrite bool, id mem.EnclaveID, gid uint32) (bool, int) {
	missed := e.handleKey(core, pa, id, gid)
	if missed && e.tr != nil {
		e.tr.Instant(e.trTracks[core], "key.fetch")
	}
	if missed {
		// A key fetch stalls the access like a one-level counter fetch:
		// classify it as depth 1 so Fig 3's pattern histogram separates
		// key-hit from key-miss accesses.
		return false, 1
	}
	return false, 0
}

// keyDomain assigns a data page to one of the scheme's encryption-key
// domains. Pages are the allocation granularity of in-process sandboxes,
// so consecutive pages land in different domains (the worst case for key
// locality, which is the interesting regime to stress).
func (e *Engine) keyDomain(pa mem.PhysAddr) uint64 {
	page := uint64(pa) / mem.PageSize
	// Fibonacci hash spreads page numbers uniformly over the domains.
	return (page * 0x9e3779b97f4a7c15) >> 32 % uint64(e.scheme.KeyDomains)
}

// handleKey performs the key-table lookup of a multi-key scheme: hit in
// the on-chip key cache, or fetch the key-table block from DRAM.
func (e *Engine) handleKey(core int, pa mem.PhysAddr, id mem.EnclaveID, gid uint32) (missed bool) {
	addr := e.keyBase + mem.PhysAddr(e.keyDomain(pa)/keysPerBlock*mem.BlockSize)
	if _, hit := e.meta.Lookup(uint64(addr), 0, false); hit {
		return false
	}
	e.pushRead(addr, mem.KindCounter, id, core, gid)
	// Keys are read-only from the engine's perspective: evicted lines are
	// never dirty, so insertion cannot generate a write-back.
	e.meta.Insert(uint64(addr), 0, false)
	return true
}
