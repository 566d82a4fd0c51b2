package cpu

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// choices feeds the oracle's decisions from a byte slice, as a fuzz input
// does; past the end it reads zeros.
type choices struct {
	b   []byte
	off int
}

func (s *choices) more() bool { return s.off < len(s.b) }

func (s *choices) byte() byte {
	if s.off >= len(s.b) {
		return 0
	}
	s.off++
	return s.b[s.off-1]
}

// uint reads an n-byte little-endian integer.
func (s *choices) uint(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(s.byte()) << (8 * i)
	}
	return v
}

// coreState is every field that Advance must leave exactly as the same
// number of Cycle calls would.
type coreState struct {
	Retired, StallCycles, Reads, Writes, OpsIssued, LastIdx uint64
	Done                                                    bool
	FinishCycle                                             uint64
	Blocked, HavePend, Exhausted                            bool
	Pending                                                 trace.Record
	PendingIdx                                              uint64
	Flights                                                 []flight // head first
	NFlights                                                int
}

func stateOf(c *Core) coreState {
	st := coreState{
		Retired: c.retired, StallCycles: c.StallCycles.Value(),
		Reads: c.Reads.Value(), Writes: c.Writes.Value(),
		OpsIssued: c.opsIssued, LastIdx: c.lastIdx,
		Done: c.done, FinishCycle: c.finishCycle,
		Blocked: c.blocked, HavePend: c.havePend, Exhausted: c.exhausted,
		Pending: c.pending, PendingIdx: c.pendingIdx, NFlights: c.nFlights,
	}
	for i := 0; i < c.fLen; i++ {
		st.Flights = append(st.Flights, c.flights[(c.fHead+i)&(len(c.flights)-1)])
	}
	return st
}

// twinCores runs two cores built on the same records through the same
// phases. ref only ever calls Cycle; adv takes each burst in which nothing
// can complete or be accepted through one Advance call, or two when the
// burst is split. After every phase the two must be in the same state.
type twinCores struct {
	t           testing.TB
	ref, adv    *Core
	now         uint64
	refTok      uint64
	advTok      uint64
	outstanding []uint64 // read tokens not yet completed
}

func newTwinCores(t testing.TB, cfg Config, s *choices) *twinCores {
	// Short traces run dry often; long ones fill the ROB.
	n := 1 + int(s.byte()%8)
	if b := s.byte(); b&1 != 0 {
		n += int((b >> 1) % 88)
	}
	recs := make([]trace.Record, n)
	for i := range recs {
		b := s.byte()
		typ := mem.Read
		if b&1 != 0 {
			typ = mem.Write
		}
		var gap uint32
		switch (b >> 1) & 3 {
		case 1:
			gap = uint32(b >> 3) // up to 31
		case 2:
			gap = uint32(s.byte()) // up to 255
		case 3:
			gap = uint32(s.uint(2) & 1023)
		}
		recs[i] = trace.Record{Gap: gap, Type: typ, VAddr: mem.VirtAddr(i * mem.BlockSize)}
	}
	// The target may equal the trace, fall short of it, or exceed it so
	// the trace runs dry.
	target := uint64(n)
	switch s.byte() % 3 {
	case 1:
		target = 1 + uint64(s.byte())%uint64(n)
	case 2:
		target = uint64(n) + 1 + uint64(s.byte())
	}
	return &twinCores{
		t:   t,
		ref: NewCore(0, cfg, trace.NewSliceSource(recs), target),
		adv: NewCore(0, cfg, trace.NewSliceSource(recs), target),
		now: 1,
	}
}

func (h *twinCores) requireSame(phase string) {
	h.t.Helper()
	if r, a := stateOf(h.ref), stateOf(h.adv); !reflect.DeepEqual(r, a) {
		h.t.Fatalf("cycle %d, after %s: Cycle and Advance diverge\nCycle:   %+v\nAdvance: %+v", h.now, phase, r, a)
	}
}

// accepting returns an issue function that accepts the first budget ops
// presented to it and refuses the rest, recording read tokens.
func accepting(budget int, tok *uint64, got *[]uint64) IssueFunc {
	return func(_ int, rec trace.Record) (uint64, bool, error) {
		if budget == 0 {
			return 0, false, nil
		}
		budget--
		if rec.Type == mem.Write {
			return 0, true, nil
		}
		*tok++
		*got = append(*got, *tok)
		return *tok, true, nil
	}
}

func refusing(int, trace.Record) (uint64, bool, error) { return 0, false, nil }

// mustNotIssue is the issue function for cycles that QuietFor promised
// would present no op.
func (h *twinCores) mustNotIssue(q uint64) IssueFunc {
	return func(int, trace.Record) (uint64, bool, error) {
		h.t.Fatalf("cycle %d: QuietFor() = %d, yet Cycle presented an op", h.now, q)
		return 0, false, nil
	}
}

// horizons asks both twins QuietFor, Settled and RetiringFor, checks that
// they agree and that asking changed nothing.
func (h *twinCores) horizons() (quiet uint64, settled bool, retiring uint64) {
	h.t.Helper()
	before := stateOf(h.adv)
	quiet, settled, retiring = h.adv.QuietFor(), h.adv.Settled(), h.adv.RetiringFor()
	if !reflect.DeepEqual(before, stateOf(h.adv)) {
		h.t.Fatalf("cycle %d: a horizon query changed the core's state", h.now)
	}
	if h.ref.QuietFor() != quiet || h.ref.Settled() != settled || h.ref.RetiringFor() != retiring {
		h.t.Fatalf("cycle %d: twins disagree on their horizons", h.now)
	}
	return quiet, settled, retiring
}

// acceptingCycles steps both twins m cycles; each cycle accepts up to a
// chosen number of ops.
func (h *twinCores) acceptingCycles(s *choices, m uint64) {
	q, _, _ := h.horizons()
	for i := uint64(0); i < m; i++ {
		budget := int(s.byte() % 10)
		var refGot, advGot []uint64
		refIssue := accepting(budget, &h.refTok, &refGot)
		advIssue := accepting(budget, &h.advTok, &advGot)
		if i < q {
			refIssue, advIssue = h.mustNotIssue(q), h.mustNotIssue(q)
		}
		ra, err := h.ref.Cycle(h.now, refIssue)
		if err != nil {
			h.t.Fatal(err)
		}
		aa, err := h.adv.Cycle(h.now, advIssue)
		if err != nil {
			h.t.Fatal(err)
		}
		if ra != aa || !reflect.DeepEqual(refGot, advGot) {
			h.t.Fatalf("cycle %d: twins diverge on an accepting cycle", h.now)
		}
		h.outstanding = append(h.outstanding, refGot...)
		h.now++
	}
	h.requireSame("accepting cycles")
}

// complete delivers a chosen subset of the outstanding reads to both twins.
func (h *twinCores) complete(s *choices) {
	keep := h.outstanding[:0]
	for _, tok := range h.outstanding {
		if s.byte()&1 == 0 {
			keep = append(keep, tok)
			continue
		}
		h.ref.OnComplete(tok)
		h.adv.OnComplete(tok)
	}
	h.outstanding = keep
	h.requireSame("completions")
}

// burst runs k cycles in which nothing completes and nothing is accepted:
// k Cycle calls on ref; on adv one Advance, or, when split is in (0, k),
// Advance(split) then Advance(k-split). It checks the horizons the twins
// reported before the burst against ref's cycles: QuietFor is the number
// of cycles before the first that presents an op (a core that could still
// load an op may present none, yet QuietFor is 0), Settled says that the
// first cycle neither loads an op nor finishes the core, and a Settled
// core's cycles retire in a prefix RetiringFor cycles long.
func (h *twinCores) burst(k, split uint64) {
	h.t.Helper()
	quiet, settled, retiring := h.horizons()
	before := stateOf(h.ref)
	issue := IssueFunc(refusing)
	if quiet >= k {
		issue = h.mustNotIssue(quiet)
	}
	presented, lastRetire := h.stepRef(k, issue)

	switch {
	case presented != 0 && quiet != presented-1 && (before.HavePend || quiet != 0):
		h.t.Fatalf("cycle %d: QuietFor() = %d, but cycle %d of the burst presented an op", h.now, quiet, presented)
	case presented == 0 && quiet < k && before.HavePend:
		h.t.Fatalf("cycle %d: QuietFor() = %d, but no cycle of a %d-cycle burst presented an op", h.now, quiet, k)
	}
	after := stateOf(h.ref)
	moved := after.HavePend != before.HavePend || after.Exhausted != before.Exhausted || after.Done != before.Done
	if settled == moved {
		h.t.Fatalf("cycle %d: Settled() = %v, but the burst's first cycle loaded or finished = %v", h.now, settled, moved)
	}
	if settled && lastRetire != min(retiring, k) {
		h.t.Fatalf("cycle %d: RetiringFor() = %d, but the last of %d cycles to retire was cycle %d", h.now, retiring, k, lastRetire)
	}

	if split > 0 && split < k {
		h.adv.Advance(h.now, split)
		h.adv.Advance(h.now+split, k-split)
	} else {
		h.adv.Advance(h.now, k)
	}
	h.now += k
	h.requireSame("a burst")
}

// stepRef makes k Cycle calls on ref. It returns the first of them (from
// 1) that presented an op and the last that retired (0 if none), failing
// if retirement resumes after a cycle that did not retire. Bursts may span
// 2^32 cycles, so once a cycle is inactive, stepRef makes one more call,
// checks that it repeated the cycle (a cycle is a function of the core's
// state, and the trace is not read when loading changes nothing), and
// charges the rest of the burst as repeats of it.
func (h *twinCores) stepRef(k uint64, issue IssueFunc) (presented, lastRetire uint64) {
	h.t.Helper()
	var i uint64
	counted := func(core int, rec trace.Record) (uint64, bool, error) {
		if presented == 0 {
			presented = i + 1
		}
		return issue(core, rec)
	}
	for ; i < k; i++ {
		before := h.ref.Retired()
		a, err := h.ref.Cycle(h.now+i, counted)
		if err != nil {
			h.t.Fatal(err)
		}
		if h.ref.Retired() != before {
			if lastRetire != i {
				h.t.Fatalf("cycle %d: retirement resumed after a stall", h.now+i)
			}
			lastRetire = i + 1
		}
		if a || i+1 == k {
			continue
		}
		prev := stateOf(h.ref)
		if a, err := h.ref.Cycle(h.now+i+1, counted); err != nil || a {
			h.t.Fatalf("cycle %d: an inactive cycle was followed by an active one (err %v)", h.now+i+1, err)
		}
		next := stateOf(h.ref)
		stalls := next.StallCycles - prev.StallCycles
		next.StallCycles = prev.StallCycles
		if !reflect.DeepEqual(prev, next) || stalls > 1 {
			h.t.Fatalf("cycle %d: an inactive cycle did not repeat", h.now+i+1)
		}
		h.ref.StallCycles.Add(stalls * (k - i - 2))
		break
	}
	return presented, lastRetire
}

// runTwins drives the twins through phases chosen by s until it runs out.
func runTwins(t testing.TB, cfg Config, s *choices) {
	h := newTwinCores(t, cfg, s)
	for phases := 0; phases < 200 && s.more(); phases++ {
		switch p := s.byte() % 8; {
		case p < 2:
			h.acceptingCycles(s, 1+uint64(s.byte()%8))
		case p == 2:
			h.complete(s)
		case p < 6:
			h.burst(splitBurst(s, 1+uint64(s.byte()%8))) // a DRAM cycle is 3 or 4
		case p == 6:
			h.burst(splitBurst(s, 1+s.uint(2))) // up to 2^16
		default:
			h.burst(splitBurst(s, 1+s.uint(4))) // a quiet stretch, up to 2^32
		}
	}
}

// splitBurst returns a burst's length k and where Advance splits it: 0
// keeps it whole.
func splitBurst(s *choices, k uint64) (uint64, uint64) {
	if s.byte()&1 == 0 || k < 2 {
		return k, 0
	}
	return k, 1 + s.uint(4)%(k-1)
}

// configFrom picks the core: Table III, or ROB 1–256 and width 1–8.
func configFrom(s *choices) Config {
	if b := s.byte(); b%4 == 0 {
		return DefaultConfig()
	}
	return Config{ROBSize: 1 + int(s.byte()), Width: 1 + int(s.byte()%8)}
}

// TestAdvanceMatchesCycle checks Advance, whole and split in two, against
// Cycle, and QuietFor, Settled and RetiringFor against the cycles they
// predict, on random records with gaps, reads, writes and trace
// exhaustion, through random accepting cycles, completions, refused bursts
// and quiet stretches.
func TestAdvanceMatchesCycle(t *testing.T) {
	cfgs := []Config{DefaultConfig(), {ROBSize: 1, Width: 1}, {ROBSize: 256, Width: 8},
		{ROBSize: 3, Width: 7}, {ROBSize: 64, Width: math.MaxInt}}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 1024)
	for seed := 0; seed < 3000; seed++ {
		rng.Read(buf)
		s := &choices{b: buf}
		cfg := configFrom(s)
		if seed < 5*len(cfgs) {
			cfg = cfgs[seed%len(cfgs)]
		}
		runTwins(t, cfg, s)
	}
}

// FuzzAdvanceMatchesCycle runs TestAdvanceMatchesCycle's twins on fuzzed
// choices, the core's configuration included.
func FuzzAdvanceMatchesCycle(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		b := make([]byte, 32<<i)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &choices{b: data}
		runTwins(t, configFrom(s), s)
	})
}
