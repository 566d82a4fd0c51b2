package fault

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/parity"
)

func TestParseFlag(t *testing.T) {
	c, err := ParseFlag("n=64,kind=chip2,seed=7,interval=5000,span=1024,scrub=100,qmax=4,target=hot,start=2000")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		N: 64, Kind: "chip2", Target: "hot", Seed: 7, StartCycle: 2000,
		Interval: 5000, SpanBlocks: 1024, ScrubInterval: 100, ScrubQueueMax: 4,
	}
	if c != want {
		t.Fatalf("ParseFlag = %+v, want %+v", c, want)
	}
	if _, err := ParseFlag("n=4,kind=bogus"); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := ParseFlag("n=4,frobnicate=1"); err == nil {
		t.Error("unknown key accepted")
	}
	if c, err := ParseFlag("n=8,scrub=off"); err != nil || !c.DisableScrub {
		t.Errorf("scrub=off: cfg=%+v err=%v", c, err)
	}
	if c, err := ParseFlag(""); err != nil || c.Enabled() {
		t.Errorf("empty flag: cfg=%+v err=%v", c, err)
	}
	// Values that fit a uint64 but not an int must not wrap negative: N=-1
	// would silently disable the campaign, ScrubQueueMax=-1 defer every
	// scrub read.
	for _, flag := range []string{
		"n=18446744073709551615",
		"n=9223372036854775808",
		"n=8,qmax=18446744073709551615",
		"n=8,qmax=9223372036854775808",
	} {
		if c, err := ParseFlag(flag); err == nil {
			t.Errorf("%s: accepted as %+v", flag, c)
		}
	}
	if c, err := ParseFlag("n=9223372036854775807,qmax=9223372036854775807"); err != nil ||
		c.N != math.MaxInt || c.ScrubQueueMax != math.MaxInt {
		t.Errorf("MaxInt values: cfg=%+v err=%v", c, err)
	}
}

// FuzzParseFlag checks that every input either errors or yields a Config
// that passes Validate with N and ScrubQueueMax non-negative.
func FuzzParseFlag(f *testing.F) {
	f.Add("n=64,kind=chip2,seed=7,interval=5000,span=1024,scrub=100,qmax=4,target=hot,start=2000")
	f.Add("n=8,scrub=off")
	f.Add("n=18446744073709551615")
	f.Add("n=4,qmax=9223372036854775808")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseFlag(s)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("ParseFlag(%q) = %+v, which fails Validate: %v", s, c, err)
		}
		if c.N < 0 || c.ScrubQueueMax < 0 {
			t.Fatalf("ParseFlag(%q) = %+v: negative N or ScrubQueueMax", s, c)
		}
	})
}

func TestNormalizedFoldsDefaults(t *testing.T) {
	// Explicit defaults and unset knobs must normalize to the same value
	// (the runspec hash-stability contract).
	explicit := Config{
		N: 16, Kind: "chip", Target: "span", StartCycle: 10_000,
		Interval: 20_000, SpanBlocks: 4096, ScrubInterval: 200, ScrubQueueMax: 8,
	}
	if got, want := explicit.Normalized(), (Config{N: 16}); got != want {
		t.Errorf("Normalized(explicit defaults) = %+v, want %+v", got, want)
	}
	// Disabled configs collapse to zero regardless of other knobs.
	if got := (Config{Kind: "rank", SpanBlocks: 99}).Normalized(); got != (Config{}) {
		t.Errorf("Normalized(disabled) = %+v, want zero", got)
	}
	if got := (Config{N: 4, Seed: 9}).Normalized(); got != (Config{N: 4, Seed: 9}) {
		t.Errorf("Normalized kept non-defaults wrong: %+v", got)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	cfg := Config{N: 32, Seed: 123}
	env := Env{Layout: parity.NewLayout(16, 4, 0), Detect: true, Correct: true, DataBlocks: 1 << 20}
	a, err := NewController(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewController(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatal("identical configs produced different event schedules")
	}
	c, err := NewController(Config{N: 32, Seed: 124}, env)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.events, c.events) {
		t.Fatal("different seeds produced identical event schedules")
	}
}

// drive pushes the controller through a synchronous fetch of the given
// block: completion of the read, then completion of every correction read
// it requested, resolving repairs immediately. scrub selects the trigger.
func drive(c *Controller, block, now uint64, scrub bool) {
	if scrub {
		c.OnScrubRead(block, now)
	} else {
		c.OnDataRead(block, now)
	}
	// Serve correction reads until the request queue drains (chained
	// sibling detections enqueue more).
	for {
		reqs := append([]Req(nil), c.TakeReqs()...)
		if len(reqs) == 0 {
			return
		}
		for _, q := range reqs {
			if q.Class == ClassSibling || q.Class == ClassParity {
				c.OnCorrectionRead(q.CorrID, now+10)
			}
		}
	}
}

func newTestController(t *testing.T, cfg Config, env Env) *Controller {
	t.Helper()
	ctl, err := NewController(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func TestSingleChipFaultCorrected(t *testing.T) {
	env := Env{Layout: parity.NewLayout(16, 4, 0), Detect: true, Correct: true, DataBlocks: 1 << 20}
	for _, kind := range []string{"bit", "pin", "chip"} {
		ctl := newTestController(t, Config{N: 1, Kind: kind, Seed: 5, StartCycle: 100, DisableScrub: true}, env)
		ctl.Advance(100, nil)
		if got := ctl.Stats.Injected.Value(); got != 1 {
			t.Fatalf("%s: injected = %d, want 1", kind, got)
		}
		block := ctl.events[0].block
		drive(ctl, block, 200, false)
		ctl.Finalize(1000)
		s := ctl.Summarize()
		if s.CorrectedDemand != 1 || s.DUE != 0 || s.SDC != 0 || s.Latent != 0 {
			t.Errorf("%s: summary = %+v, want one demand-corrected fault", kind, s)
		}
		if s.CorrectionReads != 16 {
			t.Errorf("%s: correction reads = %d, want share(16)", kind, s.CorrectionReads)
		}
		if err := s.CheckInvariant(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

func TestDoubleChipFaultIsDUE(t *testing.T) {
	env := Env{Layout: parity.NewLayout(1, 1, 0), Detect: true, Correct: true, DataBlocks: 1 << 20}
	ctl := newTestController(t, Config{N: 1, Kind: "chip2", Seed: 3, StartCycle: 50, DisableScrub: true}, env)
	ctl.Advance(50, nil)
	drive(ctl, ctl.events[0].block, 80, true)
	ctl.Finalize(100)
	s := ctl.Summarize()
	if s.DUE != 1 || s.Corrected() != 0 {
		t.Errorf("two dead chips in one block: summary = %+v, want one DUE", s)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestSharedGroupOverlapIsDUE(t *testing.T) {
	// Two chip faults in the same share group: the first repair reads the
	// second, still-corrupted sibling and fails (Table II Case 4); the
	// chained detection then repairs the sibling against the restored
	// group. Build the overlap directly instead of relying on the rng.
	env := Env{Layout: parity.NewLayout(16, 4, 0), Detect: true, Correct: true, DataBlocks: 1 << 20}
	ctl := newTestController(t, Config{N: 1, Kind: "chip", Seed: 11, StartCycle: 10, DisableScrub: true}, env)
	ctl.Advance(10, nil)
	first := ctl.events[0].block
	members := env.Layout.GroupMembers(first)
	sibling := members[0]
	if sibling == first {
		sibling = members[1]
	}
	ctl.fire(event{cycle: 20, block: sibling, chip: 2, r: 99})
	if got := ctl.Stats.Injected.Value(); got != 2 {
		t.Fatalf("injected = %d, want 2", got)
	}
	drive(ctl, first, 100, false)
	ctl.Finalize(1000)
	s := ctl.Summarize()
	if s.DUE != 1 || s.Corrected() != 1 || s.Latent != 0 {
		t.Errorf("same-group overlap: summary = %+v, want 1 DUE + 1 corrected", s)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestDetectWithoutParityIsImmediateDUE(t *testing.T) {
	// VAULT-like scheme: MACs detect, no parity corrects.
	env := Env{Detect: true, Correct: false, DataBlocks: 1 << 20}
	ctl := newTestController(t, Config{N: 1, Seed: 8, StartCycle: 5, DisableScrub: true}, env)
	ctl.Advance(5, nil)
	drive(ctl, ctl.events[0].block, 50, false)
	ctl.Finalize(60)
	s := ctl.Summarize()
	if s.DUE != 1 || s.Detected != 1 || s.CorrectionReads != 0 {
		t.Errorf("no-parity scheme: summary = %+v, want immediate DUE without correction traffic", s)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestUndetectedFaultStaysLatent(t *testing.T) {
	// Non-secure scheme: no MACs, nothing is ever detected.
	env := Env{Detect: false, Correct: false, DataBlocks: 1 << 20}
	ctl := newTestController(t, Config{N: 3, Seed: 2, StartCycle: 5, Interval: 10, DisableScrub: true}, env)
	ctl.Advance(1<<20, nil)
	for _, ev := range ctl.events {
		drive(ctl, ev.block, 1<<20, false)
	}
	ctl.Finalize(1 << 21)
	s := ctl.Summarize()
	if s.Detected != 0 || s.Latent != s.Injected || s.Injected == 0 {
		t.Errorf("non-secure: summary = %+v, want all faults latent", s)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestScrubSweepAndQuiesce(t *testing.T) {
	env := Env{Layout: parity.NewLayout(1, 1, 0), Detect: true, Correct: true, DataBlocks: 1 << 20}
	ctl := newTestController(t, Config{N: 1, Kind: "chip", Seed: 4, StartCycle: 1, SpanBlocks: 16, ScrubInterval: 1}, env)
	now := uint64(1)
	for i := 0; i < 64; i++ { // more than one full sweep of the 16-block span
		ctl.Advance(now, func(uint64) int { return 0 })
		for _, q := range append([]Req(nil), ctl.TakeReqs()...) {
			switch q.Class {
			case ClassScrub:
				ctl.OnScrubRead(q.Block, now)
			case ClassSibling, ClassParity:
				ctl.OnCorrectionRead(q.CorrID, now)
			}
		}
		now++
	}
	ctl.Quiesce()
	if ctl.NextWake() != ^uint64(0) {
		t.Error("quiesced controller still schedules wakeups")
	}
	ctl.Finalize(now)
	s := ctl.Summarize()
	if s.CorrectedScrub != 1 || s.Latent != 0 {
		t.Errorf("scrub sweep: summary = %+v, want the fault scrub-corrected", s)
	}
	if s.ScrubReads == 0 {
		t.Error("no scrub reads issued")
	}
	if err := s.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

func TestRankFaultCorrectsGroupByGroup(t *testing.T) {
	env := Env{Layout: parity.NewLayout(16, 4, 0), Detect: true, Correct: true, DataBlocks: 1 << 20}
	ctl := newTestController(t, Config{N: 1, Kind: "rank", Seed: 21, StartCycle: 10, SpanBlocks: 4096, DisableScrub: true}, env)
	ctl.Advance(10, nil)
	if got := ctl.Stats.Injected.Value(); got != RankBlocks {
		t.Fatalf("rank fault injected %d blocks, want %d", got, RankBlocks)
	}
	// Every faulted block sits in a different share group (same group
	// position), so each repairs independently.
	for b := range ctl.active {
		drive(ctl, b, 100, false)
	}
	ctl.Finalize(1000)
	s := ctl.Summarize()
	if s.Corrected() != RankBlocks || s.DUE != 0 {
		t.Errorf("rank fault: summary = %+v, want all %d blocks corrected", s, RankBlocks)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Error(err)
	}
}
