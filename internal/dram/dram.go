package dram

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/addrmap"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config describes a memory system instance.
type Config struct {
	Timing Timing
	Geom   addrmap.Geometry
	// ReadQ / WriteQ are the per-channel queue capacities (48/48 in
	// Table III).
	ReadQ  int
	WriteQ int
	// HighWM / LowWM are the write-drain watermarks: when the write queue
	// reaches HighWM the channel drains writes until LowWM.
	HighWM int
	LowWM  int
}

// DefaultConfig returns the Table III configuration for the given channel
// count.
func DefaultConfig(channels int) Config {
	return Config{
		Timing: DDR3_1600(),
		Geom:   addrmap.DefaultGeometry(channels),
		ReadQ:  48,
		WriteQ: 48,
		HighWM: 40,
		LowWM:  20,
	}
}

// Txn is one 64-byte memory transaction in flight.
type Txn struct {
	Op  mem.Op
	Loc addrmap.Location

	// GroupID is an opaque caller tag carried through completion; the
	// security engine uses it to route a finished read back to its access
	// group without a per-transaction map. Zero means untagged.
	GroupID uint32

	// Arrival is the DRAM cycle the transaction entered the queue.
	Arrival uint64
	// Done is the cycle the data burst finished (valid after completion).
	Done uint64
	// RowHit records whether the transaction was served without an
	// intervening ACTIVATE (set at column-command issue).
	RowHit bool

	neededAct bool
	colIssued bool
	// seq is the channel-local arrival order. Each bank's queues are
	// already in arrival order; the FR-FCFS scan compares the class heads'
	// seq across banks, reproducing a flat queue-order scan.
	seq uint64
}

// Latency returns the queueing+service latency in DRAM cycles.
func (t *Txn) Latency() uint64 { return t.Done - t.Arrival }

// cmd enumerates DRAM commands for the scheduler.
type cmd uint8

const (
	cmdNone cmd = iota
	cmdAct
	cmdPre
	cmdRead
	cmdWrite
)

// bank is the per-bank row-buffer state machine plus the bank's place in
// the FR-FCFS index.
type bank struct {
	// q holds the bank's queued transactions per direction (mem.Read,
	// mem.Write) in arrival order.
	q [2][]*Txn
	// at[k] is 1 + the position of the bank's entry in head table k
	// (channel.heads), or 0 while the bank has no head of that kind.
	at [4]int32

	open    bool
	row     int
	nextAct uint64 // earliest ACTIVATE (tRC, tRP)
	nextCol uint64 // earliest column command (tRCD)
	nextPre uint64 // earliest PRECHARGE (tRAS, tRTP, tWR)
}

// Head-table kinds: a kind is a class base plus a direction (mem.Read 0,
// mem.Write 1). A bank's hit head is its oldest queued row hit (open bank,
// same row); its other head is its oldest queued PRE candidate (open bank,
// other row) or ACT candidate (closed bank). Every member of a class in a
// bank needs the same command under the same timers, so the members become
// issuable together and only the head, the oldest, can be FR-FCFS's pick.
const (
	hitHeads   = 0
	otherHeads = 2
)

// head is one entry of a head table: a bank's head t of one kind, with the
// copies of t's arrival sequence number and rank that the scan compares,
// the command t needs, the bank, and rel, the earliest cycle that command
// can issue ignoring the shared data bus, with the rank gates folded in
// (MaxUint64 for an ACT while the rank's refresh is pending). Release times
// are recomputed at every event that moves one of their terms: a command on
// the bank, an ACT or write column command on its rank, a REF, or a
// refresh-pending flip.
type head struct {
	rel  uint64
	seq  uint64
	t    *Txn
	bk   *bank
	rank int32
	c    cmd
}

// rank holds rank-level constraints shared by its banks.
type rank struct {
	banks []bank
	// actWindow holds issueCycle+1 of the last four ACTIVATEs (0 = empty
	// slot) to enforce tFAW.
	actWindow   [4]uint64
	actIdx      int
	nextRankAct uint64 // earliest next ACTIVATE in this rank (tRRD)
	wtrUntil    uint64 // no read column command before this (tWTR)
	// refresh bookkeeping
	nextRef    uint64
	refPending bool
	refUntil   uint64
}

// ChannelStats aggregates per-channel event counts for performance and
// energy reporting.
type ChannelStats struct {
	Reads      stats.Counter
	Writes     stats.Counter
	Activates  stats.Counter
	Precharges stats.Counter
	Refreshes  stats.Counter
	RowHits    stats.Counter
	RowMisses  stats.Counter
	BusBusy    stats.Counter // data-bus busy cycles
	ReadLat    stats.Mean    // read latency in DRAM cycles
	// KindReads/KindWrites break traffic down by transaction kind for the
	// Fig 3 / Fig 9 analyses.
	KindReads  [mem.NumKinds]stats.Counter
	KindWrites [mem.NumKinds]stats.Counter
}

// RowHitRate returns row hits over all column commands.
func (s *ChannelStats) RowHitRate() float64 {
	total := s.RowHits.Value() + s.RowMisses.Value()
	if total == 0 {
		return 0
	}
	return float64(s.RowHits.Value()) / float64(total)
}

// channel is one DDR channel: queues, banks, bus, and scheduler state.
type channel struct {
	cfg   Config
	ranks []rank

	// heads is the FR-FCFS index: per kind (hitHeads or otherHeads plus a
	// direction) one dense table holding an entry for every bank with a
	// head of that kind, in no particular order. n counts the queued
	// transactions per direction.
	heads [4][]head
	n     [2]int
	seq   uint64 // arrival counter feeding Txn.seq

	// pending holds issued transactions until their data burst lands.
	pending []*Txn

	busFreeAt uint64
	lastRank  int
	lastWasWr bool
	draining  bool

	// nextTry memoizes a failed scheduler scan: no queued transaction can
	// have an issuable command before this cycle unless the scheduler state
	// changes first. Every gating condition in cmdReady compares now against
	// an absolute timer over state that only changes when a command issues
	// (bank/bus/rank timers, lastRank) or a transaction arrives, so a scan
	// that finds nothing issuable also yields the exact earliest re-check
	// time; issues reset the memo to 0 (always scan) and enqueues lower it
	// to the newcomer's release. A refresh-pending flip between scans can
	// only withhold ACTs, which leaves the memo early, never late.
	nextTry uint64

	// refNext memoizes the refresh state machine the same way: the
	// earliest cycle any rank can flip refPending (nextRef), finish its
	// refresh window (refUntil), or have a drain PRE mature (the open
	// banks' minimum nextPre). All three are absolute timers, and no
	// normal-path command can close a bank in a draining rank before that
	// minimum (a PRE is gated by the very same nextPre, and ticks check
	// refresh before the scheduler scan), so evaluation at refNext is
	// exact. Reset to 0 whenever issueRefresh acts.
	refNext uint64

	// check, when attached, validates every issued command against JEDEC
	// timing invariants (test instrumentation).
	check *Checker

	// tr, when attached, receives one instant event per issued DRAM
	// command on this channel's trace track.
	tr    *obs.Tracer
	track obs.TrackID

	Stats ChannelStats
}

// Memory is the full multi-channel DRAM system.
type Memory struct {
	cfg      Config
	channels []*channel
	now      uint64 // current DRAM cycle
}

// New builds a memory system from cfg.
func New(cfg Config) *Memory {
	if cfg.ReadQ <= 0 || cfg.WriteQ <= 0 {
		panic("dram: queue capacities must be positive")
	}
	if cfg.LowWM >= cfg.HighWM || cfg.HighWM > cfg.WriteQ {
		panic(fmt.Sprintf("dram: bad watermarks low=%d high=%d cap=%d", cfg.LowWM, cfg.HighWM, cfg.WriteQ))
	}
	m := &Memory{cfg: cfg}
	nr, nb := cfg.Geom.RanksPerChan, cfg.Geom.BanksPerRank
	for c := 0; c < cfg.Geom.Channels; c++ {
		ch := &channel{cfg: cfg, lastRank: -1}
		ch.ranks = make([]rank, nr)
		store := make([]bank, nr*nb)
		for r := range ch.ranks {
			ch.ranks[r].banks = store[r*nb : (r+1)*nb]
			// Stagger refreshes across ranks to avoid lockstep stalls.
			ch.ranks[r].nextRef = cfg.Timing.TREFI * uint64(r+1) / uint64(nr+1)
		}
		m.channels = append(m.channels, ch)
	}
	return m
}

// Config returns the memory configuration.
func (m *Memory) Config() Config { return m.cfg }

// AttachCheckers installs a protocol monitor on every channel and returns
// them (index = channel). Intended for tests; adds per-command overhead.
func (m *Memory) AttachCheckers() []*Checker {
	out := make([]*Checker, len(m.channels))
	for i, ch := range m.channels {
		ch.check = NewChecker(m.cfg.Timing, m.cfg.Geom.RanksPerChan, m.cfg.Geom.BanksPerRank)
		out[i] = ch.check
	}
	return out
}

// AttachObs connects the memory system to the observability layer:
// per-channel stats are registered into reg, and every issued DRAM command
// emits an instant event to tr on the matching channel track. Both may be
// nil. Observation is read-only and never alters scheduling decisions.
func (m *Memory) AttachObs(reg *obs.Registry, tr *obs.Tracer, chanTracks []obs.TrackID) {
	for c, ch := range m.channels {
		if tr != nil && len(chanTracks) > c {
			ch.tr = tr
			ch.track = chanTracks[c]
		}
		if reg != nil {
			ch.Stats.register(reg, strconv.Itoa(c))
		}
	}
}

// register exposes one channel's stats under {"channel": c}.
func (s *ChannelStats) register(reg *obs.Registry, c string) {
	l := obs.Labels{"channel": c}
	cmd := func(name string, ctr *stats.Counter) {
		reg.Counter("dram_commands_total", obs.Labels{"channel": c, "cmd": name}, ctr)
	}
	cmd("read", &s.Reads)
	cmd("write", &s.Writes)
	cmd("activate", &s.Activates)
	cmd("precharge", &s.Precharges)
	cmd("refresh", &s.Refreshes)
	reg.Counter("dram_row_hits_total", l, &s.RowHits)
	reg.Counter("dram_row_misses_total", l, &s.RowMisses)
	reg.Counter("dram_bus_busy_cycles_total", l, &s.BusBusy)
	reg.Gauge("dram_row_hit_rate", l, s.RowHitRate)
	reg.Gauge("dram_read_latency_mean_cycles", l, s.ReadLat.Value)
	for k := 0; k < mem.NumKinds; k++ {
		kl := obs.Labels{"channel": c, "kind": mem.Kind(k).String()}
		reg.Counter("dram_kind_reads_total", kl, &s.KindReads[k])
		reg.Counter("dram_kind_writes_total", kl, &s.KindWrites[k])
	}
}

// Now returns the current DRAM cycle.
func (m *Memory) Now() uint64 { return m.now }

// ChannelStats returns the stats of channel c.
func (m *Memory) ChannelStats(c int) *ChannelStats { return &m.channels[c].Stats }

// CanEnqueue reports whether channel c has room for a transaction of the
// given type.
func (m *Memory) CanEnqueue(c int, t mem.AccessType) bool {
	ch := m.channels[c]
	if t == mem.Read {
		return ch.n[mem.Read] < m.cfg.ReadQ
	}
	return ch.n[mem.Write] < m.cfg.WriteQ
}

// QueueLen returns the current occupancy of channel c's queue for type t.
func (m *Memory) QueueLen(c int, t mem.AccessType) int {
	return m.channels[c].n[t]
}

// Enqueue adds a transaction; it returns false (and does nothing) if the
// target queue is full. The transaction's Loc.Channel selects the channel.
func (m *Memory) Enqueue(t *Txn) bool {
	if !m.CanEnqueue(t.Loc.Channel, t.Op.Type) {
		return false
	}
	ch := m.channels[t.Loc.Channel]
	t.Arrival = m.now
	ch.seq++
	t.seq = ch.seq
	ch.push(t)
	// A new arrival can only add one candidate; every other transaction's
	// release time is unaffected. cmdReady's gates are absolute timers, so
	// the bound computed here stays exact until the next issue.
	if c, u := ch.cmdReady(t, m.now); c != cmdNone {
		ch.nextTry = 0
	} else if u < ch.nextTry {
		ch.nextTry = u
	}
	return true
}

// Pending returns the total number of in-flight and queued transactions.
func (m *Memory) Pending() int {
	n := 0
	for _, ch := range m.channels {
		n += ch.n[mem.Read] + ch.n[mem.Write] + len(ch.pending)
	}
	return n
}

// Tick advances the memory system one DRAM cycle. Transactions whose data
// burst completed this cycle are appended to done (which may be nil; callers
// on the hot path pass a reusable buffer re-sliced to length zero). The
// second result reports whether any channel changed state — delivered a
// completion or issued a command — this cycle; when it is false the memory
// system is guaranteed idle until at least NextEvent, which the simulation
// loop exploits to fast-forward.
func (m *Memory) Tick(done []*Txn) ([]*Txn, bool) {
	active := false
	for _, ch := range m.channels {
		var a bool
		done, a = ch.tick(m.now, done)
		active = active || a
	}
	m.now++
	return done, active
}

// NextEvent returns a lower bound on the next DRAM cycle at which any
// channel could change state — deliver a completion, trigger or finish a
// refresh, or have a command become issuable — assuming no new transactions
// arrive. It must be called after a Tick that reported no activity: that
// tick either ran the scheduler scan (leaving nextTry holding the exact
// earliest issue cycle) or was itself gated by a still-valid memo, so
// command issuability reduces to the memoized bound and only completions
// and refresh milestones need enumerating. Every cycle in [Now, NextEvent)
// is then provably a no-op except for the BusBusy statistic, which SkipTo
// advances arithmetically.
func (m *Memory) NextEvent() uint64 {
	next := uint64(math.MaxUint64)
	upd := func(t uint64) {
		if t >= m.now && t < next {
			next = t
		}
	}
	for _, ch := range m.channels {
		// Completions land at their Done cycles; the refresh state machine
		// next acts at its memo (kept current by every tick, idle or not).
		for _, t := range ch.pending {
			upd(t.Done)
		}
		upd(ch.refNext)
		// Command issuability is exactly the scan memo: this is only called
		// after a fully idle tick, so every channel with queued work just
		// ran (or still holds) a failed scan whose bound is current.
		if ch.n[mem.Read]+ch.n[mem.Write] > 0 {
			upd(ch.nextTry)
		}
	}
	return next
}

// SkipTo advances the memory system to the given cycle without simulating
// the intervening ones. It is only valid when the caller knows those cycles
// are no-ops: the last Tick reported no activity and target <= NextEvent().
// The per-channel BusBusy statistic — the only state the idle loop advances
// — is updated arithmetically so stats match a tick-by-tick run exactly.
func (m *Memory) SkipTo(target uint64) {
	if target <= m.now {
		return
	}
	for _, ch := range m.channels {
		if ch.busFreeAt > m.now {
			end := ch.busFreeAt
			if target < end {
				end = target
			}
			ch.Stats.BusBusy.Add(end - m.now)
		}
	}
	m.now = target
}

func (ch *channel) tick(now uint64, done []*Txn) ([]*Txn, bool) {
	active := false
	// Deliver completions whose data burst has landed.
	for i := 0; i < len(ch.pending); {
		t := ch.pending[i]
		if t.Done <= now {
			ch.pending[i] = ch.pending[len(ch.pending)-1]
			ch.pending = ch.pending[:len(ch.pending)-1]
			if t.Op.Type == mem.Read {
				ch.Stats.ReadLat.Observe(float64(t.Done - t.Arrival))
			}
			done = append(done, t)
			active = true
			continue
		}
		i++
	}
	if ch.busFreeAt > now {
		ch.Stats.BusBusy.Inc()
	}

	// Update drain mode.
	if ch.n[mem.Write] >= ch.cfg.HighWM {
		ch.draining = true
	} else if ch.n[mem.Write] <= ch.cfg.LowWM {
		ch.draining = false
	}

	// Refresh management: when a rank's refresh is due, drain its banks
	// (via PRE below) and issue REF once all are closed. refNext bounds the
	// next cycle any of this can act, so the rank walk is skipped between
	// milestones. One command per channel per cycle; priority: refresh
	// PRE/REF, then the primary queue (writes when draining, else reads),
	// then the other queue if the primary had nothing issuable.
	if now >= ch.refNext {
		for r := range ch.ranks {
			rk := &ch.ranks[r]
			if !rk.refPending && now >= rk.nextRef {
				rk.refPending = true
				// ACT candidates are withheld from here on.
				ch.rankRelease(rk)
			}
		}
		if ch.issueRefresh(now) {
			ch.refNext = 0
			ch.nextTry = 0
			return done, true
		}
		ch.refNext = ch.refreshBound(now)
	}
	if now < ch.nextTry {
		// A previous scan proved nothing can issue before nextTry and no
		// issue or arrival has invalidated it since.
		return done, active
	}
	until := uint64(math.MaxUint64)
	primary, secondary := mem.Read, mem.Write
	if ch.draining || ch.n[mem.Read] == 0 {
		primary, secondary = mem.Write, mem.Read
	}
	if ch.issueFrom(primary, now, &until) || ch.issueFrom(secondary, now, &until) {
		ch.nextTry = 0
		return done, true
	}
	ch.nextTry = until
	return done, active
}

// issueRefresh issues a PRE or REF needed by a pending refresh; it returns
// true if a command was issued.
func (ch *channel) issueRefresh(now uint64) bool {
	for r := range ch.ranks {
		rk := &ch.ranks[r]
		if !rk.refPending || now < rk.refUntil {
			continue
		}
		allClosed := true
		for b := range rk.banks {
			bk := &rk.banks[b]
			if bk.open {
				allClosed = false
				if now >= bk.nextPre {
					if ch.check != nil {
						ch.check.OnPrecharge(now, r, b)
					}
					if ch.tr != nil {
						ch.tr.InstantArg2(ch.track, "PRE", "rank", int64(r), "bank", int64(b))
					}
					ch.precharge(rk, bk, now)
					return true
				}
			}
		}
		if allClosed {
			// Issue REF.
			if ch.check != nil {
				ch.check.OnRefresh(now, r)
			}
			if ch.tr != nil {
				ch.tr.InstantArg(ch.track, "REF", "rank", int64(r))
			}
			rk.refUntil = now + ch.cfg.Timing.TRFC
			rk.nextRef += ch.cfg.Timing.TREFI
			rk.refPending = false
			for b := range rk.banks {
				if rk.banks[b].nextAct < rk.refUntil {
					rk.banks[b].nextAct = rk.refUntil
				}
			}
			ch.rankRelease(rk)
			ch.Stats.Refreshes.Inc()
			return true
		}
	}
	return false
}

// refreshBound returns the earliest cycle at which any rank's refresh
// machinery can next act, given that issueRefresh just declined at now: a
// quiescent rank acts at nextRef (the refPending flip), a rank inside its
// refresh window at refUntil, and a draining rank at the earliest open
// bank's nextPre (some bank is open with nextPre > now, or REF would have
// issued). Column commands can push a nextPre later — making the bound
// conservatively early, which only costs a re-scan — and nothing can make
// an action earlier: a normal-path PRE in a draining rank is gated by the
// same nextPre timers, and ACTs there are withheld.
func (ch *channel) refreshBound(now uint64) uint64 {
	next := uint64(math.MaxUint64)
	for r := range ch.ranks {
		rk := &ch.ranks[r]
		t := rk.nextRef
		if rk.refPending {
			if now < rk.refUntil {
				t = rk.refUntil
			} else {
				t = math.MaxUint64
				for b := range rk.banks {
					if bk := &rk.banks[b]; bk.open && bk.nextPre < t {
						t = bk.nextPre
					}
				}
			}
		}
		if t < next {
			next = t
		}
	}
	return next
}

// issueFrom applies FR-FCFS to one direction's queued transactions: among
// those whose column command is issuable now, it prefers ones in the rank
// that last used the data bus (rank batching amortizes the tRTRS switch
// penalty, as commercial controllers do); otherwise the oldest ready row hit
// wins; otherwise the oldest transaction for which an ACT or PRE can be
// issued. Only class heads are visited: a head is ready exactly when every
// member of its class in that bank is, so the oldest ready head of a class
// is the oldest ready member, and comparing arrival sequence numbers across
// banks reproduces the flat queue-order scan (reference_test.go checks this
// against a memo-free scan). When nothing is issuable, *until is lowered to
// the earliest cycle any head could become issuable with unchanged
// scheduler state. Returns true if a command was issued.
func (ch *channel) issueFrom(d mem.AccessType, now uint64, until *uint64) bool {
	hits, others := ch.heads[hitHeads+d], ch.heads[otherHeads+d]
	if len(hits)+len(others) == 0 {
		return false
	}
	tm := &ch.cfg.Timing
	lead := tm.TCAS
	if d == mem.Write {
		lead = tm.TCWD
	}
	// The shared-bus gate on column commands takes just two values per scan:
	// one for the rank that last used the bus, one for every other rank.
	busSame, busOther := ch.busFreeAt, ch.busFreeAt
	if ch.lastRank >= 0 {
		busOther += tm.TRTRS
		if ch.lastWasWr != (d == mem.Write) {
			busSame += 2
			busOther += 2
		}
	}
	colGateSame, colGateOther := uint64(0), uint64(0)
	if busSame > lead {
		colGateSame = busSame - lead
	}
	if busOther > lead {
		colGateOther = busOther - lead
	}
	lr := int32(ch.lastRank)
	u := *until
	var same, col, other *head
	sameSeq, colSeq, otherSeq := uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64)
	if now < colGateSame && now < colGateOther {
		// The bus gate blocks every column command: no hit head can be
		// picked, and none is released before the earlier gate. Folding
		// that gate in for all of them can only make nextTry early.
		if len(hits) > 0 {
			u = min(u, colGateSame, colGateOther)
		}
		hits = nil
	}
	for i := range hits {
		e := &hits[i]
		rel, gate := e.rel, colGateOther
		if e.rank == lr {
			gate = colGateSame
		}
		if gate > rel {
			rel = gate
		}
		switch {
		case now < rel:
			u = min(u, rel)
		case e.rank == lr:
			if e.seq < sameSeq {
				same, sameSeq = e, e.seq
			}
		case e.seq < colSeq:
			col, colSeq = e, e.seq
		}
	}
	if same == nil && col == nil {
		// A ready row hit beats every PRE/ACT head, and issuing it resets
		// nextTry, so their releases are only needed when none is ready.
		for i := range others {
			e := &others[i]
			if now < e.rel {
				u = min(u, e.rel)
			} else if e.seq < otherSeq {
				other, otherSeq = e, e.seq
			}
		}
	}
	*until = u
	pick := cmp.Or(same, col, other)
	if pick == nil {
		return false
	}
	ch.issue(pick.t, pick.c, now)
	return true
}

// cmdReady returns the next command needed by t if it is issuable at now.
// When it is not (cmdNone), the second result is the exact earliest cycle
// the command becomes issuable assuming no scheduler state change — every
// gate is a `now >= timer` comparison, so the release time is the maximum
// of the failing timers (MaxUint64 when blocked on a state change such as a
// pending refresh, which resets the caller's memo when it issues).
func (ch *channel) cmdReady(t *Txn, now uint64) (cmd, uint64) {
	if t.colIssued {
		return cmdNone, math.MaxUint64
	}
	rk := &ch.ranks[t.Loc.Rank]
	bk := &rk.banks[t.Loc.Bank]
	until := now
	if now < rk.refUntil {
		until = rk.refUntil
	}
	if bk.open && bk.row == t.Loc.Row {
		// Column command.
		tm := &ch.cfg.Timing
		if bk.nextCol > until {
			until = bk.nextCol
		}
		var lead uint64
		isWrite := t.Op.Type == mem.Write
		if isWrite {
			lead = tm.TCWD
		} else {
			lead = tm.TCAS
			if rk.wtrUntil > until {
				until = rk.wtrUntil
			}
		}
		// The burst may start at now+lead; the shared bus allows it from
		// busNeed, so the command is issuable from busNeed-lead.
		if need := ch.busNeed(t.Loc.Rank, isWrite); need > lead && need-lead > until {
			until = need - lead
		}
		if now < until {
			return cmdNone, until
		}
		if isWrite {
			return cmdWrite, now
		}
		return cmdRead, now
	}
	if bk.open {
		// Row conflict: need PRE.
		if bk.nextPre > until {
			until = bk.nextPre
		}
		if now < until {
			return cmdNone, until
		}
		return cmdPre, now
	}
	// Closed: need ACT, subject to tRC/tRP (nextAct), tRRD, tFAW, and not
	// activating a rank that is about to refresh (avoids starving REF).
	if rk.refPending {
		return cmdNone, math.MaxUint64
	}
	if bk.nextAct > until {
		until = bk.nextAct
	}
	if rk.nextRankAct > until {
		until = rk.nextRankAct
	}
	if oldest := rk.actWindow[rk.actIdx]; oldest != 0 && oldest-1+ch.cfg.Timing.TFAW > until {
		until = oldest - 1 + ch.cfg.Timing.TFAW
	}
	if now < until {
		return cmdNone, until
	}
	return cmdAct, now
}

// busNeed returns the earliest burst-start cycle permitted by the shared
// data bus, including rank-switch and turnaround penalties.
func (ch *channel) busNeed(rnk int, isWrite bool) uint64 {
	need := ch.busFreeAt
	if ch.lastRank >= 0 && ch.lastRank != rnk {
		need += ch.cfg.Timing.TRTRS
	}
	if ch.lastRank >= 0 && ch.lastWasWr != isWrite {
		// Bus turnaround between read and write bursts.
		need += 2
	}
	return need
}

// issue applies command c for t at now, then brings the FR-FCFS index up to
// date: ACT and PRE re-head the bank in both directions (its transactions
// change class), a column command makes the next row hit its direction's
// head, and release times are recomputed for the bank and for the heads of
// the rank's other banks whose release a moved rank gate enters (an ACT:
// the closed banks' ACT heads, through tRRD and tFAW; a write: the open
// banks' read-hit heads, through tWTR).
func (ch *channel) issue(t *Txn, c cmd, now uint64) {
	tm := &ch.cfg.Timing
	rk := &ch.ranks[t.Loc.Rank]
	bk := &rk.banks[t.Loc.Bank]
	switch c {
	case cmdAct:
		if ch.check != nil {
			ch.check.OnActivate(now, t.Loc.Rank, t.Loc.Bank, t.Loc.Row)
		}
		if ch.tr != nil {
			ch.tr.InstantArg2(ch.track, "ACT", "bank", int64(t.Loc.Bank), "row", int64(t.Loc.Row))
		}
		bk.open = true
		bk.row = t.Loc.Row
		bk.nextCol = now + tm.TRCD
		bk.nextPre = now + tm.TRAS
		bk.nextAct = now + tm.TRC
		rk.nextRankAct = now + tm.TRRD
		rk.actWindow[rk.actIdx] = now + 1
		rk.actIdx = (rk.actIdx + 1) % len(rk.actWindow)
		t.neededAct = true
		ch.reHead(rk, bk, mem.Read)
		ch.reHead(rk, bk, mem.Write)
		// tRRD and tFAW move the ACT release of the rank's closed banks.
		for b := range rk.banks {
			if o := &rk.banks[b]; !o.open {
				ch.releaseKind(otherHeads+int(mem.Read), rk, o)
				ch.releaseKind(otherHeads+int(mem.Write), rk, o)
			}
		}
		ch.Stats.Activates.Inc()
	case cmdPre:
		if ch.check != nil {
			ch.check.OnPrecharge(now, t.Loc.Rank, t.Loc.Bank)
		}
		if ch.tr != nil {
			ch.tr.InstantArg2(ch.track, "PRE", "rank", int64(t.Loc.Rank), "bank", int64(t.Loc.Bank))
		}
		ch.precharge(rk, bk, now)
	case cmdRead, cmdWrite:
		if ch.check != nil {
			ch.check.OnColumn(now, t.Loc.Rank, t.Loc.Bank, t.Loc.Row, c == cmdWrite)
		}
		if ch.tr != nil {
			name := "RD"
			if c == cmdWrite {
				name = "WR"
			}
			ch.tr.InstantArg2(ch.track, name, "rank", int64(t.Loc.Rank), "bank", int64(t.Loc.Bank))
		}
		var burstStart uint64
		if c == cmdRead {
			burstStart = now + tm.TCAS
			if pre := now + tm.TRTP; pre > bk.nextPre {
				bk.nextPre = pre
			}
			ch.Stats.Reads.Inc()
			ch.Stats.KindReads[t.Op.Kind].Inc()
		} else {
			burstStart = now + tm.TCWD
			if pre := burstStart + tm.TBurst + tm.TWR; pre > bk.nextPre {
				bk.nextPre = pre
			}
			rk.wtrUntil = burstStart + tm.TBurst + tm.TWTR
			ch.Stats.Writes.Inc()
			ch.Stats.KindWrites[t.Op.Kind].Inc()
		}
		bk.nextCol = now + tm.TCCD
		ch.busFreeAt = burstStart + tm.TBurst
		ch.lastRank = t.Loc.Rank
		ch.lastWasWr = c == cmdWrite
		t.colIssued = true
		t.RowHit = !t.neededAct
		if t.RowHit {
			ch.Stats.RowHits.Inc()
		} else {
			ch.Stats.RowMisses.Inc()
		}
		t.Done = burstStart + tm.TBurst
		ch.remove(rk, bk, t)
		ch.release(rk, bk)
		if c == cmdWrite {
			// tWTR moves the read-hit release of the rank's other open
			// banks.
			for b := range rk.banks {
				if o := &rk.banks[b]; o != bk && o.open {
					ch.releaseKind(hitHeads+int(mem.Read), rk, o)
				}
			}
		}
		ch.pending = append(ch.pending, t)
	}
}

// precharge closes bk: its queued transactions all become ACT candidates.
func (ch *channel) precharge(rk *rank, bk *bank, now uint64) {
	bk.open = false
	if na := now + ch.cfg.Timing.TRP; na > bk.nextAct {
		bk.nextAct = na
	}
	ch.reHead(rk, bk, mem.Read)
	ch.reHead(rk, bk, mem.Write)
	ch.Stats.Precharges.Inc()
}

// relOf returns the release time of bk's heads of kind k, from its timers
// and its rank's gates; the terms mirror cmdReady's. A read hit also waits
// out tWTR; an ACT is withheld while the rank's refresh is pending.
func (ch *channel) relOf(k int, rk *rank, bk *bank) uint64 {
	switch {
	case k == hitHeads+int(mem.Read):
		return max(rk.refUntil, bk.nextCol, rk.wtrUntil)
	case k == hitHeads+int(mem.Write):
		return max(rk.refUntil, bk.nextCol)
	case bk.open:
		return max(rk.refUntil, bk.nextPre)
	case rk.refPending:
		return math.MaxUint64
	}
	rel := max(rk.refUntil, rk.nextRankAct, bk.nextAct)
	if oldest := rk.actWindow[rk.actIdx]; oldest != 0 {
		rel = max(rel, oldest-1+ch.cfg.Timing.TFAW)
	}
	return rel
}

// release recomputes the release times of bk's heads.
func (ch *channel) release(rk *rank, bk *bank) {
	for k := range bk.at {
		ch.releaseKind(k, rk, bk)
	}
}

// releaseKind recomputes the release time of bk's head of kind k, if any.
func (ch *channel) releaseKind(k int, rk *rank, bk *bank) {
	if at := bk.at[k]; at != 0 {
		ch.heads[k][at-1].rel = ch.relOf(k, rk, bk)
	}
}

// rankRelease recomputes the release times of every bank in rk, after a REF
// or a refresh-pending flip.
func (ch *channel) rankRelease(rk *rank) {
	for b := range rk.banks {
		ch.release(rk, &rk.banks[b])
	}
}

// setHead makes t (nil for none) bk's head of kind k.
func (ch *channel) setHead(k int, rk *rank, bk *bank, t *Txn) {
	tab, at := ch.heads[k], bk.at[k]
	var h head
	if t != nil {
		h = head{ch.relOf(k, rk, bk), t.seq, t, bk, int32(t.Loc.Rank), cmdAct}
		switch {
		case k < otherHeads && t.Op.Type == mem.Write:
			h.c = cmdWrite
		case k < otherHeads:
			h.c = cmdRead
		case bk.open:
			h.c = cmdPre
		}
	}
	switch {
	case t != nil && at != 0:
		tab[at-1] = h
	case t != nil:
		ch.heads[k] = append(tab, h)
		bk.at[k] = int32(len(ch.heads[k]))
	case at != 0:
		// Move the last entry into the freed slot.
		last := tab[len(tab)-1]
		tab[at-1] = last
		last.bk.at[k] = at
		tab[len(tab)-1] = head{}
		ch.heads[k] = tab[:len(tab)-1]
		bk.at[k] = 0
	}
}

// reHead recomputes both of bk's heads in direction d from its queue. An
// empty queue has no heads to recompute.
func (ch *channel) reHead(rk *rank, bk *bank, d mem.AccessType) {
	if len(bk.q[d]) == 0 {
		return
	}
	var hit, other *Txn
	for _, t := range bk.q[d] {
		if bk.open && t.Loc.Row == bk.row {
			if hit == nil {
				hit = t
			}
		} else if other == nil {
			other = t
		}
		if other != nil && (hit != nil || !bk.open) {
			break
		}
	}
	ch.setHead(hitHeads+int(d), rk, bk, hit)
	ch.setHead(otherHeads+int(d), rk, bk, other)
}

// push appends an arriving transaction to its bank's queue; remove undoes
// it. The newcomer is the youngest member, so it heads its class only if
// the class was empty.
func (ch *channel) push(t *Txn) {
	d := t.Op.Type
	rk := &ch.ranks[t.Loc.Rank]
	bk := &rk.banks[t.Loc.Bank]
	bk.q[d] = append(bk.q[d], t)
	ch.n[d]++
	k := otherHeads + int(d)
	if bk.open && t.Loc.Row == bk.row {
		k = hitHeads + int(d)
	}
	if bk.at[k] == 0 {
		ch.setHead(k, rk, bk, t)
	}
}

// remove deletes an issued transaction from its bank's queue, keeping the
// queue in arrival order, and re-heads the bank's row hits in its direction.
func (ch *channel) remove(rk *rank, bk *bank, t *Txn) {
	d := t.Op.Type
	i := slices.Index(bk.q[d], t)
	bk.q[d] = slices.Delete(bk.q[d], i, i+1)
	ch.n[d]--
	var hit *Txn
	for _, x := range bk.q[d] {
		if x.Loc.Row == bk.row {
			hit = x
			break
		}
	}
	ch.setHead(hitHeads+int(d), rk, bk, hit)
}
