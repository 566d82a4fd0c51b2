package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workload"
)

// referenceLoop is the simulation loop with every shortcut taken out: it
// ticks every DRAM cycle and steps every core with Cycle on every CPU
// cycle, with no Advance, no horizon and no fast-forward. It defines what
// run.loop must reproduce.
func (r *run) referenceLoop() error {
	var tokenBuf []uint64
	for {
		allDone := r.allDone()
		if allDone {
			r.engine.QuiesceFaults()
			if r.engine.Pending() == 0 {
				return nil
			}
		}
		tokens, _ := r.engine.Tick(tokenBuf[:0])
		tokenBuf = tokens[:0]
		for _, tok := range tokens {
			r.cores[core.TokenCore(tok)].OnComplete(tok)
		}
		progressed := len(tokens) > 0
		for i := uint64(0); i < r.cpuPerDRAM; i++ {
			r.cpuCycle++
			for _, c := range r.cores {
				before := c.Retired()
				if _, err := c.Cycle(r.cpuCycle, r.engine.Access); err != nil {
					return err
				}
				progressed = progressed || c.Retired() != before
			}
		}
		if r.epochDue() {
			r.sample()
		}
		if err := r.wd.observe(progressed, 1, allDone, r.cpuCycle); err != nil {
			return err
		}
	}
}

// lazyLoop is the loop RunContext runs.
func lazyLoop(r *run) error { return r.loop(context.Background()) }

// loopOutput is everything a run reports: its error, or its summary,
// metrics snapshot, epoch series and event trace, and the no-progress
// cycles its watchdog counted by the end.
type loopOutput struct {
	err, summary, metrics, series, trace string
	idle                                 uint64
}

// observedRun runs cfg through loop with every observer attached. It fails
// on any DRAM protocol violation of the run's command stream, and on a
// fault ledger in which injected != corrected + DUE + SDC + latent.
func observedRun(t testing.TB, cfg Config, epoch uint64, loop func(*run) error) loopOutput {
	t.Helper()
	ob := obs.New(obs.Config{Metrics: true, EpochCycles: epoch, TraceCapacity: 1 << 12})
	cfg.Obs = ob
	r, err := newRun(cfg)
	if err == nil {
		checkers := r.dmem.AttachCheckers()
		err = loop(r)
		for ch, c := range checkers {
			if !c.Ok() {
				t.Fatalf("channel %d: %d DRAM protocol violations, first: %s", ch, len(c.Violations), c.Violations[0])
			}
		}
	}
	if err != nil {
		return loopOutput{err: err.Error()}
	}
	out := loopOutput{idle: r.wd.idle}
	summary := r.result().Summarize()
	if summary.Faults != nil {
		if err := summary.Faults.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := json.Marshal(summary)
	if err != nil {
		t.Fatal(err)
	}
	out.summary = string(sum)
	var buf bytes.Buffer
	if err := ob.Registry.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.metrics = buf.String()
	buf.Reset()
	if err := ob.Series.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out.series = buf.String()
	buf.Reset()
	if err := ob.Trace.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.trace = buf.String()
	return out
}

// requireLoopMatchesReference runs cfg through Run and through the
// reference loop and requires identical outputs.
func requireLoopMatchesReference(t testing.TB, name string, cfg Config, epoch uint64) {
	t.Helper()
	got := observedRun(t, cfg, epoch, lazyLoop)
	want := observedRun(t, cfg, epoch, (*run).referenceLoop)
	for _, f := range []struct{ what, got, want string }{
		{"error", got.err, want.err},
		{"summary", got.summary, want.summary},
		{"metrics snapshot", got.metrics, want.metrics},
		{"epoch series", got.series, want.series},
		{"event trace", got.trace, want.trace},
		{"watchdog count", fmt.Sprint(got.idle), fmt.Sprint(want.idle)},
	} {
		if f.got != f.want {
			t.Fatalf("%s: %s differs from the reference loop's\n got: %.2000s\nwant: %.2000s", name, f.what, f.got, f.want)
		}
	}
}

// withLimits runs fn with the watchdog budgets set to deadlock and drain
// (zero keeps a budget), restoring them afterwards.
func withLimits(deadlock, drain uint64, fn func()) {
	oldDeadlock, oldDrain := deadlockLimit, drainLimit
	defer func() { deadlockLimit, drainLimit = oldDeadlock, oldDrain }()
	if deadlock != 0 {
		deadlockLimit = deadlock
	}
	if drain != 0 {
		drainLimit = drain
	}
	fn()
}

// picker feeds a config's choices from a byte slice, as a fuzz input
// does; past the end it reads zeros.
type picker struct {
	b   []byte
	off int
}

func (p *picker) byte() byte {
	if p.off >= len(p.b) {
		return 0
	}
	p.off++
	return p.b[p.off-1]
}

// intn returns a choice in [0, n).
func (p *picker) intn(n int) int {
	return int((uint(p.byte()) | uint(p.byte())<<8) % uint(n))
}

func (p *picker) bool() bool { return p.byte()&1 != 0 }

// loopCase is one randomized run: its config, epoch interval and watchdog
// budgets (zero keeps the default).
type loopCase struct {
	cfg             Config
	epoch           uint64
	deadlock, drain uint64
}

// pickLoopCase draws a small run on any scheme and benchmark: 1–8 cores,
// 1–2 channels, DDR3 or DDR4, optional LLC filter, strict verification,
// dense allocation, random ROB and width, fault campaigns, a series
// interval from 1 CPU cycle up, and sometimes watchdog budgets small enough
// to wedge the run.
func pickLoopCase(p *picker) loopCase {
	schemes := core.SchemeNames()
	specs := workload.Specs()
	cfg := Config{
		SchemeName:   schemes[p.intn(len(schemes))],
		Benchmark:    specs[p.intn(len(specs))],
		Cores:        1 + p.intn(8),
		Channels:     1 + p.intn(2),
		OpsPerCore:   uint64(10 + p.intn(300)),
		Seed:         int64(p.intn(1 << 16)),
		DDR4:         p.bool(),
		StrictVerify: p.bool(),
		DenseAlloc:   p.bool(),
	}
	if p.intn(4) == 0 {
		cfg.WarmupOps = uint64(p.intn(100))
	}
	if p.intn(3) == 0 {
		cfg.FilterLLC = true
		cfg.LLCMBPerCore = 1 + p.intn(2)
	}
	if p.intn(4) == 0 {
		cfg.PolicyName = []string{"column", "rank", "rbh2", "rbh4"}[p.intn(4)]
	}
	if p.intn(4) == 0 {
		cfg.MetaKBPerCore = []int{4, 8, 32}[p.intn(3)]
	}
	if p.intn(2) == 0 {
		cfg.CPU = cpu.Config{ROBSize: 1 + p.intn(256), Width: 1 + p.intn(8)}
	}
	if p.intn(3) == 0 {
		cfg.Faults = fault.Config{
			N:             1 + p.intn(8),
			Kind:          []string{"bit", "pin", "chip", "chip2", "rank"}[p.intn(5)],
			Target:        []string{"span", "hot"}[p.intn(2)],
			Seed:          int64(p.intn(1 << 16)),
			StartCycle:    uint64(1 + p.intn(5000)),
			Interval:      uint64(1 + p.intn(5000)),
			SpanBlocks:    uint64(64 + p.intn(1024)),
			ScrubInterval: uint64(1 + p.intn(200)),
			DisableScrub:  p.intn(4) == 0,
			ScrubQueueMax: p.intn(12),
		}
	}
	lc := loopCase{cfg: cfg, epoch: uint64(100 + p.intn(20_000))}
	if p.intn(8) == 0 {
		// Intervals shorter than a DRAM cycle sample on every iteration.
		lc.epoch = uint64(1 + p.intn(8))
		lc.cfg.OpsPerCore = uint64(5 + p.intn(30))
	}
	if p.intn(6) == 0 {
		lc.deadlock = uint64(1 + p.intn(400))
	}
	if p.intn(6) == 0 {
		lc.drain = uint64(1 + p.intn(100))
	}
	return lc
}

func (lc loopCase) String() string {
	c := lc.cfg
	return fmt.Sprintf("%s/%s %dc%dch ops=%d+%d seed=%d ddr4=%v llc=%v strict=%v dense=%v policy=%q meta=%d cpu=%+v faults=%+v epoch=%d limits=%d/%d",
		c.SchemeName, c.Benchmark.Name, c.Cores, c.Channels, c.OpsPerCore, c.WarmupOps, c.Seed, c.DDR4, c.FilterLLC,
		c.StrictVerify, c.DenseAlloc, c.PolicyName, c.MetaKBPerCore, c.CPU, c.Faults, lc.epoch, lc.deadlock, lc.drain)
}

func (lc loopCase) check(t testing.TB) {
	t.Helper()
	withLimits(lc.deadlock, lc.drain, func() {
		requireLoopMatchesReference(t, lc.String(), lc.cfg, lc.epoch)
	})
}

// TestLoopMatchesReference checks the lazy-core loop, with its idle
// fast-forward, against the reference loop on runs wedged by small
// deadlock budgets and on random small configs. The golden configs run
// through the same comparison in TestIdleSkipEquivalence, the faulted
// configs in TestFaultIdleSkipEquivalence.
func TestLoopMatchesReference(t *testing.T) {
	for _, limit := range []uint64{8, 50, 200} {
		name := fmt.Sprintf("deadlock-%d", limit)
		t.Run(name, func(t *testing.T) {
			withLimits(limit, 0, func() {
				requireLoopMatchesReference(t, name, tinyConfig(t), 0)
				if _, err := Run(tinyConfig(t)); err == nil {
					t.Fatalf("a %d-cycle deadlock budget must wedge the run", limit)
				}
			})
		})
	}
	t.Run("random", func(t *testing.T) {
		n := 120
		if testing.Short() {
			n = 20
		}
		rng := rand.New(rand.NewSource(1))
		buf := make([]byte, 64)
		for i := 0; i < n; i++ {
			rng.Read(buf)
			pickLoopCase(&picker{b: buf}).check(t)
		}
	})
}

// FuzzLoopMatchesReference runs TestLoopMatchesReference's comparison on
// fuzzed configs.
func FuzzLoopMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		b := make([]byte, 64)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pickLoopCase(&picker{b: data}).check(t)
	})
}
