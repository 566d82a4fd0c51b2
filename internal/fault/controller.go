package fault

import (
	"fmt"

	"repro/internal/mac"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/parity"
	"repro/internal/stats"
)

// Class labels a DRAM transaction requested by the Controller; the engine
// translates each Req into a real transaction and reports completions back.
type Class uint8

const (
	// ClassScrub is a low-priority background read sweeping the span.
	ClassScrub Class = iota
	// ClassSibling is a correction read of another data block in the
	// faulted block's parity share group (RAID-5-style reconstruction).
	ClassSibling
	// ClassParity is the correction read of the group's parity field.
	ClassParity
	// ClassFixWrite writes a successfully corrected block back to DRAM.
	ClassFixWrite
)

// Req is one DRAM transaction the controller wants issued. Block is always
// a data-region block number; for ClassParity it is the faulted block whose
// parity location the engine resolves (separate region or tree leaf).
// CorrID ties correction reads to their correction (zero for scrub).
type Req struct {
	Class  Class
	Block  uint64
	CorrID uint32
}

// Env is what the controller needs to know about the scheme under test.
type Env struct {
	// Layout is the parity share-group geometry (zero value means no
	// parity; it is normalized to the degenerate 1/1 layout).
	Layout parity.Layout
	// Detect is true when the scheme carries MACs, so corrupted fetches
	// are detected; without it every fault stays latent (silent).
	Detect bool
	// Correct is true when the scheme has correction parity; a detected
	// error without it is immediately a DUE.
	Correct bool
	// DataBlocks is the size of the data region, clamping the span.
	DataBlocks uint64
}

// Stats are the controller's live counters, registered into the obs
// metrics registry when observability is attached.
type Stats struct {
	Events          stats.Counter // injection events fired
	Injected        stats.Counter // blocks that became faulty
	Detected        stats.Counter // MAC mismatches observed on fetch
	CorrectedDemand stats.Counter // repairs triggered by demand reads
	CorrectedScrub  stats.Counter // repairs triggered by scrub reads
	DUE             stats.Counter // detected uncorrectable errors
	SDC             stats.Counter // wrong reconstruction accepted (silent)
	ScrubReads      stats.Counter // background scrub reads issued
	CorrectionReads stats.Counter // sibling + parity reads issued
	FixWrites       stats.Counter // corrected-block write-backs issued
	DetectLatency   stats.Mean    // inject→detect, DRAM cycles
	RepairLatency   stats.Mean    // detect→resolve, DRAM cycles
}

// Register exposes the counters as fault_* metrics.
func (s *Stats) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("fault_events_total", nil, &s.Events)
	reg.Counter("fault_injected_total", nil, &s.Injected)
	reg.Counter("fault_detected_total", nil, &s.Detected)
	reg.Counter("fault_corrected_demand_total", nil, &s.CorrectedDemand)
	reg.Counter("fault_corrected_scrub_total", nil, &s.CorrectedScrub)
	reg.Counter("fault_due_total", nil, &s.DUE)
	reg.Counter("fault_sdc_total", nil, &s.SDC)
	reg.Counter("fault_scrub_reads_total", nil, &s.ScrubReads)
	reg.Counter("fault_correction_reads_total", nil, &s.CorrectionReads)
	reg.Counter("fault_fix_writes_total", nil, &s.FixWrites)
	reg.Gauge("fault_detect_latency_cycles", nil, s.DetectLatency.Value)
	reg.Gauge("fault_repair_latency_cycles", nil, s.RepairLatency.Value)
}

// Summary is the serializable digest of a finished campaign (attached to
// sim.Summary when faults were enabled).
type Summary struct {
	Events          uint64  `json:"events"`
	Injected        uint64  `json:"injected"`
	Detected        uint64  `json:"detected"`
	CorrectedDemand uint64  `json:"corrected_demand"`
	CorrectedScrub  uint64  `json:"corrected_scrub"`
	DUE             uint64  `json:"due"`
	SDC             uint64  `json:"sdc"`
	Latent          uint64  `json:"latent"`
	ScrubReads      uint64  `json:"scrub_reads"`
	CorrectionReads uint64  `json:"correction_reads"`
	FixWrites       uint64  `json:"fix_writes"`
	MeanDetect      float64 `json:"mean_detect_cycles"`
	MeanRepair      float64 `json:"mean_repair_cycles"`
}

// Corrected is the total number of repaired faults regardless of trigger.
func (s *Summary) Corrected() uint64 { return s.CorrectedDemand + s.CorrectedScrub }

// CheckInvariant verifies the DUE bookkeeping identity: every block that
// became faulty is accounted for exactly once.
func (s *Summary) CheckInvariant() error {
	resolved := s.Corrected() + s.DUE + s.SDC + s.Latent
	if s.Injected != resolved {
		return fmt.Errorf("fault: injected=%d != corrected(%d)+due(%d)+sdc(%d)+latent(%d)=%d",
			s.Injected, s.Corrected(), s.DUE, s.SDC, s.Latent, resolved)
	}
	return nil
}

// event is one pre-scheduled injection.
type event struct {
	cycle uint64
	block uint64 // ^0: pick a hot block at fire time
	chip  int
	chip2 int
	bit   int
	pin   int
	r     uint64 // corruption payload seed
}

// faultState tracks one currently-faulty block.
type faultState struct {
	injected     uint64
	inCorrection bool
}

// correction is one in-flight repair: share reads (siblings + parity) must
// complete before the chip-hypothesis walk runs.
type correction struct {
	block     uint64
	scrub     bool
	detected  uint64
	remaining int
}

// Controller owns the campaign state machine. It is deliberately ignorant
// of DRAM geometry and addressing: the engine drives it once per DRAM cycle
// (Advance), issues the transactions it requests (TakeReqs), and reports
// read completions back (OnDataRead / OnScrubRead / OnCorrectionRead).
type Controller struct {
	cfg  Config
	env  Env
	mac  *mac.Engine
	rng  rng
	span uint64

	events []event
	nextEv int

	active   map[uint64]*faultState
	observed map[uint64]*[mem.BlockSize]byte

	corr     map[uint32]*correction
	nextCorr uint32
	freeCorr []uint32
	reqs     []Req

	scrubNext uint64
	scrubPtr  uint64
	quiesced  bool

	hot    []uint64
	hotLen int
	hotPos int

	tr    *obs.Tracer
	track obs.TrackID

	Stats Stats
	final *Summary
}

// hotCap bounds the recently-fetched-block reservoir of the hot target.
const hotCap = 1024

// NewController builds the campaign over a validated, enabled config.
func NewController(cfg Config, env Env) (*Controller, error) {
	if !cfg.Enabled() {
		return nil, fmt.Errorf("fault: NewController on a disabled config")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if env.Layout.Share <= 0 {
		env.Layout = parity.NewLayout(1, 1, 0)
	}
	c := &Controller{
		cfg:      cfg,
		env:      env,
		mac:      mac.NewEngine(mac.Key{K0: uint64(cfg.Seed) ^ 0x5ec41e, K1: 0x17e5b}),
		rng:      newRNG(cfg.Seed),
		active:   map[uint64]*faultState{},
		observed: map[uint64]*[mem.BlockSize]byte{},
		corr:     map[uint32]*correction{},
	}
	// The span is the fault + scrub domain: clamp to the data region and
	// round down to whole share groups so group members stay inside it.
	group := uint64(env.Layout.Share * env.Layout.Stride)
	c.span = cfg.spanBlocks()
	if env.DataBlocks > 0 && c.span > env.DataBlocks {
		c.span = env.DataBlocks
	}
	if c.span > group {
		c.span -= c.span % group
	} else {
		c.span = group
	}
	// Pre-generate the whole event schedule so injection timing never
	// depends on simulation state (except hot-target victim choice, which
	// is resolved at fire time from the demand stream).
	t := cfg.startCycle()
	hot := cfg.target() == "hot"
	if hot {
		c.hot = make([]uint64, hotCap)
	}
	for i := 0; i < cfg.N; i++ {
		ev := event{
			cycle: t,
			block: c.rng.next() % c.span,
			chip:  int(c.rng.next() % parity.DataChips),
			bit:   int(c.rng.next() % (mem.BlockSize * 8)),
			pin:   int(c.rng.next() % parity.PinsPerChip),
			r:     c.rng.next(),
		}
		ev.chip2 = (ev.chip + 1 + int(c.rng.next()%(parity.DataChips-1))) % parity.DataChips
		if hot {
			ev.block = ^uint64(0)
		}
		c.events = append(c.events, ev)
		t += 1 + c.rng.next()%(2*cfg.interval())
	}
	if !cfg.DisableScrub {
		c.scrubNext = cfg.startCycle()
	}
	return c, nil
}

// Register exposes the controller's counters in the metrics registry.
func (c *Controller) Register(reg *obs.Registry) { c.Stats.Register(reg) }

// AttachTrace emits campaign events (inject/detect/repair/due) on a tracer
// track. Observation only; simulated behavior is identical without it.
func (c *Controller) AttachTrace(tr *obs.Tracer, track obs.TrackID) {
	c.tr = tr
	c.track = track
}

func (c *Controller) instant(name string, block uint64) {
	if c.tr != nil {
		c.tr.InstantArg(c.track, name, "block", int64(block))
	}
}

// Outstanding counts work the memory system must still drain: unissued
// requests plus unresolved corrections. The engine adds it to Pending so
// the simulation keeps ticking until every repair resolves.
func (c *Controller) Outstanding() int { return len(c.reqs) + len(c.corr) }

// NextWake returns the next DRAM cycle at which the controller needs to
// act (injection or scrub), for the simulator's idle fast-forward clamp.
// Returns ^uint64(0) when nothing is scheduled.
func (c *Controller) NextWake() uint64 {
	next := ^uint64(0)
	if !c.quiesced {
		if c.nextEv < len(c.events) {
			next = c.events[c.nextEv].cycle
		}
		if !c.cfg.DisableScrub && c.scrubNext < next {
			next = c.scrubNext
		}
	}
	return next
}

// Advance fires every injection event due at or before now and schedules
// scrub reads. queueLen reports the read-queue depth behind a block's
// channel so scrub stays low-priority: a scrub read is deferred while the
// queue is deeper than ScrubQueueMax. It returns true if anything happened.
func (c *Controller) Advance(now uint64, queueLen func(block uint64) int) bool {
	if c.quiesced {
		return false
	}
	activity := false
	for c.nextEv < len(c.events) && c.events[c.nextEv].cycle <= now {
		c.fire(c.events[c.nextEv])
		c.nextEv++
		activity = true
	}
	if !c.cfg.DisableScrub && now >= c.scrubNext {
		block := c.scrubPtr
		if queueLen == nil || queueLen(block) <= c.cfg.scrubQueueMax() {
			c.reqs = append(c.reqs, Req{Class: ClassScrub, Block: block})
			c.Stats.ScrubReads.Inc()
			c.scrubPtr = (c.scrubPtr + 1) % c.span
			c.scrubNext = now + c.cfg.scrubInterval()
			activity = true
		} else {
			// Channel busy: retry next cycle without accumulating backlog.
			c.scrubNext = now + 1
		}
	}
	return activity
}

// TakeReqs hands the engine every pending transaction request, clearing
// the queue. The returned slice is valid until the next controller call.
func (c *Controller) TakeReqs() []Req {
	r := c.reqs
	c.reqs = c.reqs[:0]
	return r
}

// Quiesce stops future injections and scrubbing (events not yet fired are
// dropped, uncounted). In-flight corrections still resolve; the simulator
// calls this when every core has finished so the run can drain.
func (c *Controller) Quiesce() { c.quiesced = true }

// fire applies one injection event to the functional memory image.
func (c *Controller) fire(ev event) {
	block := ev.block
	if block == ^uint64(0) { // hot target: victim from the demand stream
		if c.hotLen > 0 {
			block = c.hot[ev.r%uint64(c.hotLen)]
		} else {
			block = ev.r % c.span
		}
	}
	c.Stats.Events.Inc()
	blocks := []uint64{block}
	if c.cfg.kind() == "rank" {
		// One block per parity group, stepping a whole group each time:
		// equal group positions land in the same rank under the layout's
		// placement constraint.
		step := uint64(c.env.Layout.Share * c.env.Layout.Stride)
		for i := 1; i < RankBlocks; i++ {
			blocks = append(blocks, (block+uint64(i)*step)%c.span)
		}
	}
	for i, b := range blocks {
		ob := c.observedOf(b)
		seed := byte(ev.r>>uint(8*(i%8))) | 1
		switch c.cfg.kind() {
		case "bit":
			*ob = parity.FlipBit(*ob, ev.bit)
		case "pin":
			for beat := 0; beat < parity.Beats; beat++ {
				ob[beat*parity.DataChips+ev.chip] ^= 1 << uint(ev.pin)
			}
		case "chip", "rank":
			*ob = parity.KillChip(*ob, ev.chip, seed)
		case "chip2":
			*ob = parity.KillChip(*ob, ev.chip, seed)
			*ob = parity.KillChip(*ob, ev.chip2, seed^0xa5)
		}
		if st := c.active[b]; st == nil {
			c.active[b] = &faultState{injected: ev.cycle}
			c.Stats.Injected.Inc()
			c.instant("fault.inject", b)
		}
		// Re-corrupting an already-faulty block deepens the same fault;
		// it resolves once, so Injected is counted per block, not event.
	}
}

// observedOf returns the block's current (possibly corrupted) contents,
// materializing the pristine image on first touch.
func (c *Controller) observedOf(block uint64) *[mem.BlockSize]byte {
	if ob := c.observed[block]; ob != nil {
		return ob
	}
	ob := new([mem.BlockSize]byte)
	*ob = c.originalOf(block)
	c.observed[block] = ob
	return ob
}

// originalOf regenerates the block's pristine functional contents: a
// deterministic function of the campaign seed and block number, so nothing
// needs storing for clean blocks.
func (c *Controller) originalOf(block uint64) (b [mem.BlockSize]byte) {
	r := newRNG(c.cfg.Seed ^ int64(block*0x9E3779B97F4A7C15+1))
	for i := 0; i < mem.BlockSize; i += 8 {
		v := r.next()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> uint(8*j))
		}
	}
	return b
}

// storedMAC is the MAC the metadata would hold for the pristine block.
func (c *Controller) storedMAC(block uint64) uint64 {
	orig := c.originalOf(block)
	return c.mac.Compute(mem.PhysAddr(block*mem.BlockSize), 0, orig[:])
}

// OnDataRead is called for every completed demand data read. It feeds the
// hot-target reservoir and runs MAC-mismatch detection when the fetched
// block is faulty.
func (c *Controller) OnDataRead(block uint64, now uint64) {
	if c.hot != nil {
		c.hot[c.hotPos] = block
		c.hotPos = (c.hotPos + 1) % hotCap
		if c.hotLen < hotCap {
			c.hotLen++
		}
	}
	c.maybeDetect(block, now, false)
}

// OnScrubRead is called when a background scrub read completes.
func (c *Controller) OnScrubRead(block uint64, now uint64) {
	c.maybeDetect(block, now, true)
}

// maybeDetect models the engine MAC-verifying a fetched block: a faulty
// block not already under repair is detected and enters correction (or is
// immediately a DUE when the scheme has no parity).
func (c *Controller) maybeDetect(block uint64, now uint64, scrub bool) {
	if !c.env.Detect {
		return
	}
	st := c.active[block]
	if st == nil || st.inCorrection {
		return
	}
	c.Stats.Detected.Inc()
	c.Stats.DetectLatency.Observe(float64(now - st.injected))
	c.instant("fault.detect", block)
	if !c.env.Correct {
		// Detection without correction parity: detected uncorrectable.
		c.Stats.DUE.Inc()
		c.instant("fault.due", block)
		c.clear(block)
		return
	}
	st.inCorrection = true
	id := c.allocCorr()
	c.corr[id] = &correction{block: block, scrub: scrub, detected: now, remaining: c.env.Layout.Share}
	for _, m := range c.env.Layout.GroupMembers(block) {
		if m != block {
			c.reqs = append(c.reqs, Req{Class: ClassSibling, Block: m, CorrID: id})
		}
	}
	c.reqs = append(c.reqs, Req{Class: ClassParity, Block: block, CorrID: id})
	c.Stats.CorrectionReads.Add(uint64(c.env.Layout.Share))
}

func (c *Controller) allocCorr() uint32 {
	if n := len(c.freeCorr); n > 0 {
		id := c.freeCorr[n-1]
		c.freeCorr = c.freeCorr[:n-1]
		return id
	}
	c.nextCorr++
	return c.nextCorr
}

// OnCorrectionRead is called when a sibling or parity correction read
// completes; once the whole share group has arrived the repair resolves.
func (c *Controller) OnCorrectionRead(corrID uint32, now uint64) {
	co := c.corr[corrID]
	if co == nil {
		return
	}
	co.remaining--
	if co.remaining == 0 {
		c.resolve(corrID, co, now)
	}
}

// resolve runs the real chip-hypothesis correction walk over the group's
// current functional contents. Corrupted siblings are used as observed —
// exactly the shared-parity exposure of Table II Case 4: a concurrent
// fault elsewhere in the share group defeats reconstruction and the error
// becomes a DUE.
func (c *Controller) resolve(corrID uint32, co *correction, now uint64) {
	block := co.block
	members := c.env.Layout.GroupMembers(block)
	var parityVal uint64
	siblings := make([]*[mem.BlockSize]byte, 0, len(members)-1)
	for _, m := range members {
		orig := c.originalOf(m)
		parityVal ^= parity.BlockParity(&orig)
		if m == block {
			continue
		}
		if ob := c.observed[m]; ob != nil {
			siblings = append(siblings, ob)
		} else {
			s := new([mem.BlockSize]byte)
			*s = orig
			siblings = append(siblings, s)
		}
	}
	observed := *c.observedOf(block)
	stored := c.storedMAC(block)
	addr := mem.PhysAddr(block * mem.BlockSize)
	verify := func(cand *[mem.BlockSize]byte) bool {
		return c.mac.Verify(addr, 0, cand[:], stored)
	}
	orig := c.originalOf(block)
	fixed, _, ok := parity.Correct(observed, parityVal, siblings, verify)
	switch {
	case ok && fixed == orig:
		if co.scrub {
			c.Stats.CorrectedScrub.Inc()
		} else {
			c.Stats.CorrectedDemand.Inc()
		}
		c.reqs = append(c.reqs, Req{Class: ClassFixWrite, Block: block})
		c.Stats.FixWrites.Inc()
		c.instant("fault.repair", block)
	case ok:
		// A wrong reconstruction passed verification: silent corruption.
		c.Stats.SDC.Inc()
		c.instant("fault.sdc", block)
	default:
		c.Stats.DUE.Inc()
		c.instant("fault.due", block)
	}
	c.Stats.RepairLatency.Observe(float64(now - co.detected))
	// Graceful degradation: the fault is resolved either way (repaired, or
	// recovered out-of-band after the DUE) and the campaign continues.
	c.clear(block)
	delete(c.corr, corrID)
	c.freeCorr = append(c.freeCorr, corrID)
	// The correction fetched (and MAC-verified) every sibling, so faults
	// elsewhere in the group are detected now — each becomes its own
	// repair against the group state this one left behind.
	for _, m := range members {
		if m != block {
			c.maybeDetect(m, now, co.scrub)
		}
	}
}

// clear removes a fault and restores the block's functional contents.
func (c *Controller) clear(block uint64) {
	delete(c.active, block)
	delete(c.observed, block)
}

// Finalize freezes the campaign digest; faults never detected (or dropped
// by Quiesce before resolution) are counted latent.
func (c *Controller) Finalize(now uint64) {
	s := &Summary{
		Events:          c.Stats.Events.Value(),
		Injected:        c.Stats.Injected.Value(),
		Detected:        c.Stats.Detected.Value(),
		CorrectedDemand: c.Stats.CorrectedDemand.Value(),
		CorrectedScrub:  c.Stats.CorrectedScrub.Value(),
		DUE:             c.Stats.DUE.Value(),
		SDC:             c.Stats.SDC.Value(),
		Latent:          uint64(len(c.active)),
		ScrubReads:      c.Stats.ScrubReads.Value(),
		CorrectionReads: c.Stats.CorrectionReads.Value(),
		FixWrites:       c.Stats.FixWrites.Value(),
		MeanDetect:      c.Stats.DetectLatency.Value(),
		MeanRepair:      c.Stats.RepairLatency.Value(),
	}
	c.final = s
}

// Summarize returns the frozen digest (nil before Finalize).
func (c *Controller) Summarize() *Summary { return c.final }
