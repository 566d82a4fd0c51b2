package core

import (
	"fmt"

	"repro/internal/addrmap"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/enclave"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/parity"
	"repro/internal/trace"
)

// Config assembles one secure-memory system instance.
type Config struct {
	Scheme Scheme
	Policy addrmap.Policy
	Cores  int
	// DataPages is the size of the protected data region in 4 KB pages;
	// metadata regions are laid out above it. The total must fit in the
	// policy's geometry.
	DataPages uint64
	// StrictVerify makes data reads complete only after every metadata
	// read they triggered has returned (no speculative verification). The
	// paper's baselines hide verification latency behind speculation
	// (PoisonIvy-style), so the default is false.
	StrictVerify bool
}

// Engine is the memory-controller-side security engine: it owns the
// metadata caches and integrity-tree state, translates each LLC-level data
// access into DRAM transactions, and tracks read completions.
type Engine struct {
	cfg    Config
	mem    *dram.Memory
	encl   *enclave.System
	geom   addrmap.Geometry
	scheme Scheme

	// traffic is the scheme family's metadata-traffic strategy (nil for
	// the non-secure baseline); see traffic.go.
	traffic TrafficModel

	// trees[i] is enclave i's tree under isolation; trees[0] is the single
	// shared tree otherwise.
	trees    []*integrity.Tree
	counters []counterSim

	meta *cache.Cache // counter + tree (+ embedded parity) cache
	macC *cache.Cache // separate MAC cache (VAULT)
	parC *cache.Cache // parity write-coalescing cache

	layout       parity.Layout // parity grouping (shared/embedded)
	parityStride int

	macBase    mem.PhysAddr
	parityBase mem.PhysAddr
	keyBase    mem.PhysAddr // key-table base (multi-key schemes)

	// spill is a ring buffer of transactions awaiting DRAM queue space;
	// its capacity is a power of two and entries live in issue order at
	// [spillHead, spillHead+spillLen).
	spill     []*dram.Txn
	spillHead int
	spillLen  int

	nextToken uint64

	// groups is a slab of access groups addressed by the GroupID tag on
	// each transaction (slot i holds GroupID i+1; 0 means untagged).
	// Completed slots are recycled through freeGroups, so the steady-state
	// access path allocates nothing.
	groups     []accessGroup
	freeGroups []uint32

	// txnPool recycles completed transactions; doneBuf is the reusable
	// completion buffer handed to dram.Memory.Tick.
	txnPool []*dram.Txn
	doneBuf []*dram.Txn

	scratch []mem.PhysAddr

	// tr, when non-nil, receives cycle-stamped engine events on the
	// per-core tracks in trTracks. Disabled (nil) costs one branch per
	// hook and allocates nothing.
	tr       *obs.Tracer
	trTracks []obs.TrackID

	// faults, when non-nil, is the fault-injection campaign controller
	// (see faults.go); nil for every fault-free run.
	faults *fault.Controller

	Stats Stats
}

// accessGroup tracks completion of a data read and (under StrictVerify)
// its metadata reads.
type accessGroup struct {
	token     uint64
	remaining int
	// core and issueTS are recorded for trace emission (issue-to-complete
	// read slices); issueTS is only meaningful while tracing is attached.
	core    int
	issueTS uint64
}

// tokenCoreBits is the width of the owning-core field packed into the low
// bits of every read token. Tokens are engine-issued, so encoding the owner
// is free and lets the simulation loop route completions back to cores
// without a token-to-owner map.
const tokenCoreBits = 8

// MaxCores is the largest core count the token encoding supports.
const MaxCores = 1 << tokenCoreBits

// TokenCore returns the core that issued the read identified by token.
func TokenCore(token uint64) int { return int(token & (MaxCores - 1)) }

// spillLimit bounds the spill ring: Access backpressures once it holds
// this many transactions.
const spillLimit = 64

// counterSim abstracts the counter-value simulation used for overflow
// accounting: the rebase-only CounterStore or the bit-exact MorphableStore.
type counterSim interface {
	Write(localBlock uint64) bool
	OverflowCount() uint64
}

// New builds an engine. The DRAM memory and enclave system are owned by the
// caller (the simulator) so experiments can inspect them directly.
func New(cfg Config, dmem *dram.Memory, encl *enclave.System) (*Engine, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("core: need at least one core")
	}
	if cfg.Cores > MaxCores {
		return nil, fmt.Errorf("core: %d cores exceed the token encoding limit %d", cfg.Cores, MaxCores)
	}
	e := &Engine{
		cfg:    cfg,
		mem:    dmem,
		encl:   encl,
		geom:   cfg.Policy.Geometry(),
		scheme: cfg.Scheme,
	}
	if !cfg.Scheme.Secure {
		return e, nil
	}

	dataBlocks := cfg.DataPages * mem.BlocksPage
	next := mem.PhysAddr(dataBlocks * mem.BlockSize)

	e.traffic = trafficFor(cfg.Scheme)
	next = e.traffic.Layout(e, dataBlocks, next)
	if uint64(next) > e.geom.CapacityBytes() {
		return nil, fmt.Errorf("core: data (%d pages) + metadata (%d MB) exceed DRAM capacity %d MB",
			cfg.DataPages, uint64(next)>>20, e.geom.CapacityBytes()>>20)
	}

	parts := 1
	if cfg.Scheme.Isolated && !cfg.Scheme.UnpartitionedCache {
		parts = cfg.Cores
	}
	if cfg.Scheme.MetaCacheKB > 0 {
		e.meta = cache.New(cache.DefaultMetadata(cfg.Scheme.MetaCacheKB, parts))
	}
	if cfg.Scheme.MACCacheKB > 0 {
		e.macC = cache.New(cache.DefaultMetadata(cfg.Scheme.MACCacheKB, parts))
	}
	if cfg.Scheme.ParityCacheKB > 0 && cfg.Scheme.ParityCached {
		e.parC = cache.New(cache.DefaultMetadata(cfg.Scheme.ParityCacheKB, 1))
	}
	return e, nil
}

// mac64PerBlock is the number of 8-byte MACs per 64-byte MAC-region block.
const mac64PerBlock = mem.BlockSize / mem.MACSize

// shareOf returns the parity-sharing degree of the scheme.
func shareOf(s Scheme) int {
	switch s.Parity {
	case ParityShared:
		return s.ParityShare
	case ParityEmbedded:
		return s.Tree.ParityShare
	}
	return 1
}

// parityStride finds the smallest power-of-two block stride S such that
// `share` blocks spaced S apart map to distinct ranks under the policy —
// the placement constraint of Section III-G. For the Rank/RBH policies this
// is the policy's group size (1, 2, or 4); for Column it spans whole rows.
func parityStride(p addrmap.Policy, share int) int {
	if share <= 1 {
		return 1
	}
	g := p.Geometry()
	if share > g.RanksPerChan {
		share = g.RanksPerChan
	}
	for s := 1; s <= 1<<30; s <<= 1 {
		distinct := true
		seen := make(map[int]bool, share)
		for i := 0; i < share; i++ {
			loc := p.Map(uint64(i * s))
			key := loc.Channel*g.RanksPerChan + loc.Rank
			if seen[key] {
				distinct = false
				break
			}
			seen[key] = true
		}
		if distinct {
			return s
		}
	}
	return 1
}

// AttachObs connects the engine to the observability layer: its stats (and
// its metadata caches') are registered into reg, and events are emitted to
// tr on the given per-core tracks. Both may be nil; call before the first
// Access. Observation is read-only — attaching never changes simulated
// behavior or cycle counts.
func (e *Engine) AttachObs(reg *obs.Registry, tr *obs.Tracer, coreTracks []obs.TrackID) {
	if tr != nil && len(coreTracks) >= e.cfg.Cores {
		e.tr = tr
		e.trTracks = coreTracks
	}
	if reg == nil {
		return
	}
	e.Stats.Register(reg)
	if e.meta != nil {
		e.meta.Register(reg, obs.Labels{"cache": "meta"})
	}
	if e.macC != nil {
		e.macC.Register(reg, obs.Labels{"cache": "mac"})
	}
	if e.parC != nil {
		e.parC.Register(reg, obs.Labels{"cache": "parity"})
	}
	reg.Gauge("engine_counter_overflows", nil, func() float64 { return float64(e.Overflows()) })
	reg.Gauge("engine_spill_occupancy", nil, func() float64 { return float64(e.spillLen) })
}

// Scheme returns the engine's scheme.
func (e *Engine) Scheme() Scheme { return e.scheme }

// MetaCache exposes the metadata cache for experiment instrumentation
// (Fig 2's use-per-block and hit-rate metrics). It may be nil.
func (e *Engine) MetaCache() *cache.Cache { return e.meta }

// Overflows returns total local-counter overflow events across trees.
func (e *Engine) Overflows() uint64 {
	var n uint64
	for _, c := range e.counters {
		n += c.OverflowCount()
	}
	return n
}

// OverflowPenaltyCycles returns the post-hoc CPU-cycle penalty charged for
// local-counter overflows, following the paper's methodology of estimating
// overflow costs with a separate counter-value simulation.
func (e *Engine) OverflowPenaltyCycles() uint64 {
	return e.Overflows() * e.scheme.Tree.OverflowPenaltyCycles
}

// Backpressured reports whether Access would currently be rejected.
func (e *Engine) Backpressured() bool { return e.spillLen >= spillLimit }

// Pending reports in-flight work (spill + DRAM queues + unresolved fault
// corrections), so the simulation drains every repair before finishing.
func (e *Engine) Pending() int {
	n := e.spillLen + e.mem.Pending()
	if e.faults != nil {
		n += e.faults.Outstanding()
	}
	return n
}

// Access presents one LLC-level data operation from a core. For reads it
// returns a non-zero token delivered by Tick when the read completes.
// accepted is false when the engine is backpressured; the caller should
// retry next cycle.
func (e *Engine) Access(core int, rec trace.Record) (token uint64, accepted bool, err error) {
	if e.Backpressured() {
		return 0, false, nil
	}
	id := mem.EnclaveID(core)
	pa, pte, err := e.encl.Translate(id, rec.VAddr)
	if err != nil {
		return 0, false, err
	}
	isWrite := rec.Type == mem.Write

	var gid uint32
	if !isWrite {
		e.nextToken++
		token = e.nextToken<<tokenCoreBits | uint64(core)
		gid = e.allocGroup(token, core)
	}
	if e.tr != nil {
		if gid != 0 {
			e.groups[gid-1].issueTS = e.tr.Now()
		} else {
			e.tr.Instant(e.trTracks[core], "op.write")
		}
	}
	e.pushData(pa, rec.Type, id, core, gid)

	if e.scheme.Secure {
		macMissed, depth := e.traffic.OnAccess(e, core, pa, pte, isWrite, id, gid)
		e.Stats.recordPattern(isWrite, macMissed, depth)
	}
	if isWrite {
		e.Stats.DataWrites.Inc()
	} else {
		e.Stats.DataReads.Inc()
	}

	return token, true, nil
}

// allocGroup takes a free slab slot (or grows the slab) and returns its
// 1-based GroupID.
func (e *Engine) allocGroup(token uint64, core int) uint32 {
	g := accessGroup{token: token, remaining: 1, core: core}
	if n := len(e.freeGroups); n > 0 {
		gid := e.freeGroups[n-1]
		e.freeGroups = e.freeGroups[:n-1]
		e.groups[gid-1] = g
		return gid
	}
	e.groups = append(e.groups, g)
	return uint32(len(e.groups))
}

// treeLocal returns the tree index and tree-local block index for a data
// access: under isolation, the enclave's own tree indexed by leaf-id; in
// the shared baseline, the single tree indexed by physical block number.
func (e *Engine) treeLocal(core int, pte enclave.PTE, pa mem.PhysAddr) (int, uint64) {
	if e.scheme.Isolated {
		return core, enclave.LocalBlock(pte, pa)
	}
	return 0, pa.Block()
}

// handleMAC performs the separate-MAC-region access of the VAULT baseline.
func (e *Engine) handleMAC(core int, pa mem.PhysAddr, isWrite bool, id mem.EnclaveID, gid uint32) (missed bool) {
	part := 0
	if e.scheme.Isolated {
		part = core
	}
	addr := e.macBase + mem.PhysAddr(pa.Block()/mac64PerBlock*mem.BlockSize)
	if _, hit := e.macC.Lookup(uint64(addr), part, isWrite); hit {
		return false
	}
	// Fetch on read; write-allocate with fetch on write (the 8-byte MAC
	// update needs the rest of the 64-byte line).
	e.pushRead(addr, mem.KindMAC, id, core, gid)
	if ev := e.macC.Insert(uint64(addr), part, isWrite); ev.Occurred && ev.Line.Dirty {
		e.pushWrite(mem.PhysAddr(ev.Line.Addr), mem.KindMAC, id, core)
	}
	return true
}

// handleTree walks the integrity tree from the leaf covering local upward
// until a metadata-cache hit, fetching missing nodes. It returns the number
// of levels fetched (0 = leaf hit).
func (e *Engine) handleTree(treeIdx int, local uint64, dirtyLeaf bool, id mem.EnclaveID, core int, gid uint32) int {
	if e.meta == nil {
		return 0
	}
	part := 0
	if e.scheme.Isolated {
		part = treeIdx
	}
	e.scratch = e.trees[treeIdx].Walk(local, e.scratch[:0])
	depth := 0
	for lvl, addr := range e.scratch {
		markDirty := dirtyLeaf && lvl == 0
		if _, hit := e.meta.Lookup(uint64(addr), part, markDirty); hit {
			break
		}
		depth++
		kind := mem.KindTree
		if lvl == 0 {
			kind = mem.KindCounter
		}
		e.pushRead(addr, kind, id, core, gid)
		if ev := e.meta.InsertAux(uint64(addr), part, markDirty, uint64(lvl)); ev.Occurred && ev.Line.Dirty {
			evKind := mem.KindTree
			if ev.Line.Aux == 0 {
				evKind = mem.KindCounter
			}
			e.pushWrite(mem.PhysAddr(ev.Line.Addr), evKind, id, core)
		}
	}
	return depth
}

// handleParity generates the error-correction metadata traffic of a data
// write under the scheme's parity mode.
func (e *Engine) handleParity(treeIdx int, local uint64, pa mem.PhysAddr, id mem.EnclaveID, core int) {
	switch e.scheme.Parity {
	case ParityNone:
		return
	case ParityPerBlock, ParityShared:
		addr := e.layout.BlockAddr(pa.Block())
		shared := e.scheme.Parity == ParityShared
		if !e.scheme.ParityCached || e.parC == nil {
			if shared {
				// RAID-5 read-modify-write on every data write.
				e.pushRead(addr, mem.KindParity, id, core, 0)
				e.Stats.ParityRMW.Inc()
				if e.tr != nil {
					e.tr.Instant(e.trTracks[core], "parity.rmw")
				}
			}
			e.pushWrite(addr, mem.KindParity, id, core)
			return
		}
		// Parity cache: a write-coalescing buffer, never filled by reads.
		if _, hit := e.parC.Lookup(uint64(addr), 0, true); hit {
			return
		}
		if ev := e.parC.Insert(uint64(addr), 0, true); ev.Occurred && ev.Line.Dirty {
			if shared {
				// The evicted entry holds only a parity *diff*: read the
				// old parity, apply, write back (Section III-C).
				e.pushRead(mem.PhysAddr(ev.Line.Addr), mem.KindParity, id, core, 0)
				e.Stats.ParityRMW.Inc()
				if e.tr != nil {
					e.tr.Instant(e.trTracks[core], "parity.rmw")
				}
			}
			// The evicted parity line goes back as one whole-line write.
			e.pushWrite(mem.PhysAddr(ev.Line.Addr), mem.KindParity, id, core)
		}
	case ParityEmbedded:
		// The parity lives in a leaf node of the integrity tree. When the
		// data block's counter leaf also holds its parity (the common
		// case under matched address mapping), the write is already
		// covered by handleTree. Otherwise the other leaf (and its
		// ancestors, for verification) must be accessed too — the Fig 15
		// penalty of mismatched address mapping policies.
		geom := e.scheme.Tree
		parityLeaf := e.layout.FieldIndex(local) / uint64(geom.ParitiesPerLeaf)
		counterLeaf := local / uint64(geom.LeafArity)
		if parityLeaf == counterLeaf {
			return
		}
		e.Stats.ParitySplitLeaf.Inc()
		e.handleTree(treeIdx, parityLeaf*uint64(geom.LeafArity), true, id, core, 0)
	}
}

// newTxn takes a transaction from the recycle pool or allocates one. The
// caller overwrites every field, so no clearing is needed here.
func (e *Engine) newTxn() *dram.Txn {
	if n := len(e.txnPool); n > 0 {
		t := e.txnPool[n-1]
		e.txnPool = e.txnPool[:n-1]
		return t
	}
	return new(dram.Txn)
}

// pushData enqueues the data transaction itself.
func (e *Engine) pushData(pa mem.PhysAddr, t mem.AccessType, id mem.EnclaveID, core int, gid uint32) {
	txn := e.newTxn()
	*txn = dram.Txn{
		Op:      mem.Op{Addr: pa, Type: t, Kind: mem.KindData, Enclave: id, Core: core},
		Loc:     e.cfg.Policy.Map(pa.Block()),
		GroupID: gid,
	}
	e.push(txn)
}

func (e *Engine) pushRead(addr mem.PhysAddr, kind mem.Kind, id mem.EnclaveID, core int, gid uint32) {
	txn := e.newTxn()
	*txn = dram.Txn{
		Op:  mem.Op{Addr: addr, Type: mem.Read, Kind: kind, Enclave: id, Core: core},
		Loc: e.cfg.Policy.Map(addr.Block()),
	}
	if gid != 0 && e.cfg.StrictVerify {
		e.groups[gid-1].remaining++
		txn.GroupID = gid
	}
	e.Stats.MetaReads[kind].Inc()
	e.push(txn)
}

func (e *Engine) pushWrite(addr mem.PhysAddr, kind mem.Kind, id mem.EnclaveID, core int) {
	txn := e.newTxn()
	*txn = dram.Txn{
		Op:  mem.Op{Addr: addr, Type: mem.Write, Kind: kind, Enclave: id, Core: core},
		Loc: e.cfg.Policy.Map(addr.Block()),
	}
	e.Stats.MetaWrites[kind].Inc()
	e.push(txn)
}

// push enqueues directly when possible, spilling otherwise to preserve
// issue order.
func (e *Engine) push(txn *dram.Txn) {
	if e.spillLen == 0 && e.mem.Enqueue(txn) {
		return
	}
	if e.spillLen == len(e.spill) {
		e.growSpill()
	}
	e.spill[(e.spillHead+e.spillLen)&(len(e.spill)-1)] = txn
	e.spillLen++
}

// growSpill doubles the spill ring, re-linearizing entries at index 0.
func (e *Engine) growSpill() {
	size := 2 * len(e.spill)
	if size == 0 {
		size = 16
	}
	next := make([]*dram.Txn, size)
	for i := 0; i < e.spillLen; i++ {
		next[i] = e.spill[(e.spillHead+i)&(len(e.spill)-1)]
	}
	e.spill = next
	e.spillHead = 0
}

// Tick advances the memory system one DRAM cycle: it drains the spill
// buffer, ticks DRAM, and appends the tokens of data reads that completed
// to buf (which may be nil), returning the extended slice. The second
// result reports whether anything happened this cycle — a spill entry
// drained, a DRAM command issued, or a transaction completed — so callers
// can detect fully idle ticks and fast-forward past them.
func (e *Engine) Tick(buf []uint64) (tokens []uint64, active bool) {
	for e.spillLen > 0 {
		if !e.mem.Enqueue(e.spill[e.spillHead]) {
			break
		}
		e.spill[e.spillHead] = nil
		e.spillHead = (e.spillHead + 1) & (len(e.spill) - 1)
		e.spillLen--
		active = true
	}
	if e.faults != nil && e.faultTick() {
		active = true
	}
	done, memActive := e.mem.Tick(e.doneBuf[:0])
	e.doneBuf = done[:0]
	tokens = buf
	for _, txn := range done {
		if gid := txn.GroupID; gid&faultGIDBit != 0 {
			e.onFaultDone(txn)
			e.txnPool = append(e.txnPool, txn)
			continue
		} else if gid != 0 {
			g := &e.groups[gid-1]
			g.remaining--
			if g.remaining == 0 {
				tokens = append(tokens, g.token)
				if e.tr != nil {
					now := e.tr.Now()
					e.tr.Slice(e.trTracks[g.core], "op.read", g.issueTS, now-g.issueTS)
				}
				e.freeGroups = append(e.freeGroups, gid)
			}
		}
		if e.faults != nil && txn.Op.Kind == mem.KindData && txn.Op.Type == mem.Read {
			e.faults.OnDataRead(txn.Op.Addr.Block(), e.mem.Now())
		}
		e.txnPool = append(e.txnPool, txn)
	}
	// Correction chains started by the completions above issue their
	// reads this same cycle.
	if e.faults != nil && e.drainFaultReqs() {
		active = true
	}
	return tokens, active || memActive
}
