// Package sim binds the trace-driven cores, the secure-memory engine, and
// the DRAM model into a full multi-programmed simulation, reproducing the
// paper's methodology: N copies of a benchmark, one enclave per core, a
// single security engine at the memory controller, and DDR3-1600 channels.
package sim

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/addrmap"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/enclave"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/llc"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// SchemeName selects the secure-memory scheme (see core.SchemeNames).
	SchemeName string
	// Benchmark is the workload generated for every core.
	Benchmark workload.Spec
	// Cores is the number of cores / enclaves / program copies.
	Cores int
	// Channels is the number of DDR channels (paper: 1 for 4 cores, 2 for
	// 8 cores).
	Channels int
	// PolicyName selects the address-mapping policy; empty means the
	// scheme's best default, DefaultPolicy (column for the baselines, rbh2
	// for ITESP's two parities per leaf).
	PolicyName string
	// OpsPerCore is the number of memory operations simulated per core
	// (the paper uses 5M; experiments here default lower for runtime).
	OpsPerCore uint64
	// WarmupOps is added to each core's op count: a core runs
	// OpsPerCore+WarmupOps ops, and no counter is reset after the first
	// WarmupOps, so the warm-up ops are measured like the rest (ROADMAP,
	// "Converge the headline numbers", decides whether this becomes a real
	// warm-up or goes).
	WarmupOps uint64
	// Seed diversifies the per-core generators.
	Seed int64
	// DataFrac is the fraction of DRAM capacity given to the data region
	// (rest holds metadata). Zero means 0.75.
	DataFrac float64
	// MetaKBPerCore scales the scheme's on-chip cache budget (Fig 13
	// sensitivity); zero keeps the paper default of 16 KB per core.
	MetaKBPerCore int
	// DenseAlloc hands out physical pages in address order instead of the
	// default scattered (fragmented-EPC) order — the idealized
	// single-program layout of the Fig 2/3 "Small" model.
	DenseAlloc bool
	// DDR4 swaps the DDR3-1600 timing for DDR4-2400 (sensitivity study;
	// the CPU:bus clock ratio becomes 3:1 for a 3.6 GHz core).
	DDR4 bool
	// FilterLLC interposes a per-core LLC slice between the generator and
	// the memory system. The generator stream is then interpreted as
	// pre-LLC references, and write-backs emerge from dirty evictions
	// instead of the generators' calibrated write fractions.
	FilterLLC bool
	// LLCMBPerCore sizes each core's LLC slice (default 2 MB, i.e. the
	// paper's 8 MB shared LLC across 4 cores).
	LLCMBPerCore int
	// StrictVerify disables speculative verification.
	StrictVerify bool
	// Faults configures the deterministic fault-injection campaign. The
	// zero value disables it entirely, leaving the run bit-identical to a
	// simulator without the fault subsystem.
	Faults fault.Config
	// CPU overrides the core pipeline; zero value uses Table III.
	CPU cpu.Config

	// Scheme optionally overrides SchemeName with an explicit scheme.
	Scheme *core.Scheme
	// Sources optionally overrides the per-core trace sources.
	Sources []trace.Source

	// Obs optionally attaches an observability bundle (metrics registry,
	// epoch time-series, event tracing, live progress) to the run. Nil
	// disables everything; the simulated cycle counts are identical either
	// way because observation is strictly read-only. An Observer must be
	// fresh per run.
	Obs *obs.Observer
}

// Result carries the measurements of one run.
type Result struct {
	Config Config
	Scheme core.Scheme

	// Cycles is execution time in CPU cycles (slowest core to finish),
	// including the post-hoc local-counter overflow penalty.
	Cycles uint64
	// PerCoreCycles is each core's finish time.
	PerCoreCycles []uint64
	// Engine exposes engine-side stats (metadata traffic, Fig 3 patterns).
	Engine *core.Engine
	// Memory exposes DRAM-side stats (row hits, energy counts).
	Memory *dram.Memory
	// MemoryJoules is the Fig 10 memory-energy estimate.
	MemoryJoules float64
	// SystemEDP is the Fig 10 system energy-delay product.
	SystemEDP float64
	// Overflows counts local-counter re-encryptions.
	Overflows uint64
	// Faults is the fault-campaign digest (nil when faults are disabled).
	Faults *fault.Summary
}

// MetaPerOp returns metadata accesses per data operation (Fig 9 metric).
func (r *Result) MetaPerOp() float64 { return r.Engine.Stats.MetaAccessesPerOp() }

// RowHitRate returns the all-channel row-buffer hit rate.
func (r *Result) RowHitRate() float64 {
	var hits, total uint64
	for c := 0; c < r.Memory.Config().Geom.Channels; c++ {
		s := r.Memory.ChannelStats(c)
		hits += s.RowHits.Value()
		total += s.RowHits.Value() + s.RowMisses.Value()
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// MetaCacheHitRate returns the metadata cache hit rate (0 if no cache).
func (r *Result) MetaCacheHitRate() float64 {
	mc := r.Engine.MetaCache()
	if mc == nil {
		return 0
	}
	return mc.Stats.HitRate()
}

// attachObs wires the run's observability bundle through every layer:
// trace tracks (one per core and one per DRAM channel, with the shared CPU
// cycle counter as the timebase), metric registration for the engine, the
// DRAM channels, the cores, and the LLC filters, and the epoch-series
// probe columns. A nil cfg.Obs leaves every component's hooks nil.
func attachObs(cfg Config, engine *core.Engine, dmem *dram.Memory, cores []*cpu.Core, filters []*llc.Filter, cpuCycle *uint64) {
	o := cfg.Obs
	if o == nil {
		return
	}
	channels := dmem.Config().Geom.Channels

	tr := o.Trace
	var coreTracks, chanTracks []obs.TrackID
	if tr != nil {
		tr.SetClock(func() uint64 { return *cpuCycle })
		tr.Process(obs.PidCores, "cores")
		tr.Process(obs.PidChannels, "dram channels")
		for i := range cores {
			coreTracks = append(coreTracks, tr.NewTrack(obs.PidCores, "core "+strconv.Itoa(i)))
		}
		for c := 0; c < channels; c++ {
			chanTracks = append(chanTracks, tr.NewTrack(obs.PidChannels, "channel "+strconv.Itoa(c)))
		}
	}
	engine.AttachObs(o.Registry, tr, coreTracks)
	dmem.AttachObs(o.Registry, tr, chanTracks)
	if f := engine.Faults(); f != nil {
		if tr != nil {
			tr.Process(obs.PidFaults, "fault campaign")
			f.AttachTrace(tr, tr.NewTrack(obs.PidFaults, "faults"))
		}
		f.Register(o.Registry)
	}

	if reg := o.Registry; reg != nil {
		for i, c := range cores {
			c := c
			l := obs.Labels{"core": strconv.Itoa(i)}
			reg.Counter("cpu_reads_total", l, &c.Reads)
			reg.Counter("cpu_writes_total", l, &c.Writes)
			reg.Counter("cpu_stall_cycles_total", l, &c.StallCycles)
			reg.Gauge("cpu_retired_instructions", l, func() float64 { return float64(c.Retired()) })
		}
		for i, f := range filters {
			f.Register(reg, obs.Labels{"core": strconv.Itoa(i)})
		}
		reg.Gauge("sim_cpu_cycles", nil, func() float64 { return float64(*cpuCycle) })
	}

	if s := o.Series; s != nil {
		// The bandwidth columns convert bytes-per-CPU-cycle to GB/s via the
		// core clock: 3.2 GHz for DDR3-1600 (4:1), 3.6 GHz for DDR4-2400.
		ghz := 3.2
		if cfg.DDR4 {
			ghz = 3.6
		}
		retired := func() float64 {
			var n uint64
			for _, c := range cores {
				n += c.Retired()
			}
			return float64(n)
		}
		st := &engine.Stats
		ops := func() float64 { return float64(st.DataOps()) }
		metaTotal := func() float64 {
			var t uint64
			for k := 0; k < mem.NumKinds; k++ {
				if mem.Kind(k) == mem.KindData {
					continue
				}
				t += st.MetaReads[k].Value() + st.MetaWrites[k].Value()
			}
			return float64(t)
		}
		s.Rate("ipc", retired, 1)
		s.Ratio("meta_per_op", metaTotal, ops)
		if mc := engine.MetaCache(); mc != nil {
			s.Ratio("meta_hit_rate",
				func() float64 { return float64(mc.Stats.Hits.Value()) },
				func() float64 { return float64(mc.Stats.Hits.Value() + mc.Stats.Misses.Value()) })
		}
		if len(filters) > 0 {
			s.Ratio("llc_hit_rate",
				func() float64 {
					var h uint64
					for _, f := range filters {
						hits, _ := f.LookupCounts()
						h += hits
					}
					return float64(h)
				},
				func() float64 {
					var t uint64
					for _, f := range filters {
						_, total := f.LookupCounts()
						t += total
					}
					return float64(t)
				})
		}
		s.Ratio("parity_rmw_per_op", func() float64 { return float64(st.ParityRMW.Value()) }, ops)
		for c := 0; c < channels; c++ {
			cs := dmem.ChannelStats(c)
			name := "chan" + strconv.Itoa(c)
			s.Rate(name+"_gbps", func() float64 {
				return float64((cs.Reads.Value() + cs.Writes.Value()) * mem.BlockSize)
			}, ghz)
			s.Ratio(name+"_row_hit_rate",
				func() float64 { return float64(cs.RowHits.Value()) },
				func() float64 { return float64(cs.RowHits.Value() + cs.RowMisses.Value()) })
		}
	}
}

// DefaultPolicy returns the mapping policy a run of s uses when Config
// leaves PolicyName empty: the best mapping per scheme (Section V-C). The
// baselines favor pure row-buffer locality (column); embedded parity wants
// the N-row-buffer-hit policy whose group size matches the number of parity
// fields per leaf, so that N consecutive row-buffer-local blocks still land
// in a single leaf node; standalone shared parity likewise groups blocks of
// different ranks and favors rbh4.
func DefaultPolicy(s core.Scheme) string {
	switch s.Parity {
	case core.ParityEmbedded:
		switch {
		case s.Tree.ParitiesPerLeaf >= 4:
			return "rbh4"
		case s.Tree.ParitiesPerLeaf == 2:
			return "rbh2"
		default:
			return "rank"
		}
	case core.ParityShared:
		return "rbh4"
	}
	return "column"
}

// cancelStride is how many main-loop iterations pass between cancellation
// checks in RunContext. Each iteration covers at least one DRAM cycle (idle
// fast-forward covers many more), so a canceled run stops within
// microseconds of wall clock while the uncancellable path pays one
// predictable nil-comparison per iteration.
const cancelStride = 4096

// Run executes one simulation to completion.
func Run(cfg Config) (*Result, error) { return RunContext(context.Background(), cfg) }

// RunContext executes one simulation to completion, abandoning it with an
// ErrCanceled-wrapped error (which also wraps ctx.Err(), so
// errors.Is(err, context.Canceled) and context.DeadlineExceeded hold) as
// soon as a coarse-stride check observes the context's cancellation. The
// check is observationally free: it mutates no simulation state, so a run
// whose context never fires is bit-identical to Run — the golden
// cycle-equivalence tests pin this — and contexts that can never fire
// (context.Background) skip the check entirely.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.loop(ctx); err != nil {
		return nil, err
	}
	return r.result(), nil
}

// run is one simulation: the machine newRun assembles, and the clock and
// observers its loop advances.
type run struct {
	cfg    Config
	scheme core.Scheme
	engine *core.Engine
	dmem   *dram.Memory
	fctl   *fault.Controller
	cores  []*cpu.Core
	// cpuPerDRAM is the CPU:DRAM clock ratio: 4 on DDR3-1600, 3 on
	// DDR4-2400.
	cpuPerDRAM uint64
	// cpuCycle is the last simulated CPU cycle and the tracer's clock. The
	// loop iteration that ticks DRAM cycle n covers CPU cycles
	// n*cpuPerDRAM+1 through (n+1)*cpuPerDRAM.
	cpuCycle uint64

	// Observability bookkeeping: all nil/zero (and therefore skipped by one
	// predictable branch per iteration) unless cfg.Obs enables them.
	series    *obs.Series
	prog      *obs.Progress
	nextEpoch uint64
	opsTarget uint64

	wd drainWatchdog
}

// resolve returns the scheme a run of cfg simulates, with its on-chip cache
// budget scaled by MetaKBPerCore, and the name of the address-mapping
// policy the run uses: PolicyName, or the scheme's DefaultPolicy when that
// is empty.
func resolve(cfg Config) (core.Scheme, string, error) {
	var scheme core.Scheme
	if cfg.Scheme != nil {
		scheme = *cfg.Scheme
	} else {
		var err error
		scheme, err = core.SchemeByName(cfg.SchemeName, cfg.Cores)
		if err != nil {
			return core.Scheme{}, "", err
		}
	}
	if cfg.MetaKBPerCore > 0 && cfg.MetaKBPerCore != 16 {
		scheme.MetaCacheKB = scheme.MetaCacheKB * cfg.MetaKBPerCore / 16
		scheme.MACCacheKB = scheme.MACCacheKB * cfg.MetaKBPerCore / 16
		scheme.ParityCacheKB = scheme.ParityCacheKB * cfg.MetaKBPerCore / 16
	}
	policy := cfg.PolicyName
	if policy == "" {
		policy = DefaultPolicy(scheme)
	}
	return scheme, policy, nil
}

// Policy returns the name of the address-mapping policy a run of cfg uses.
// It resolves the scheme exactly as the run does, so a caller that folds an
// explicit default away (runspec.Spec.Normalized) folds the policy the run
// would pick.
func Policy(cfg Config) (string, error) {
	_, policy, err := resolve(cfg)
	return policy, err
}

// newRun validates cfg, fills in its defaults, and assembles the machine.
func newRun(cfg Config) (*run, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("sim: cores must be positive")
	}
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	if cfg.OpsPerCore == 0 {
		cfg.OpsPerCore = 100_000
	}
	if cfg.DataFrac == 0 {
		cfg.DataFrac = 0.75
	}
	scheme, policyName, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	cfg.PolicyName = policyName
	geom := addrmap.DefaultGeometry(cfg.Channels)
	policy, err := addrmap.ByName(cfg.PolicyName, geom)
	if err != nil {
		return nil, err
	}

	timing := dram.DDR3_1600()
	cpuPerDRAM := uint64(dram.CPUCyclesPerDRAMCycle)
	if cfg.DDR4 {
		timing = dram.DDR4_2400()
		cpuPerDRAM = 3
	}
	dmem := dram.New(dram.Config{
		Timing: timing,
		Geom:   geom,
		ReadQ:  48, WriteQ: 48, HighWM: 40, LowWM: 20,
	})
	dataPages := uint64(float64(geom.CapacityBytes())*cfg.DataFrac) / mem.PageSize
	var encl *enclave.System
	if cfg.DenseAlloc {
		encl = enclave.NewDenseSystem(dataPages)
	} else {
		encl = enclave.NewSystem(dataPages)
	}
	engine, err := core.New(core.Config{
		Scheme:       scheme,
		Policy:       policy,
		Cores:        cfg.Cores,
		DataPages:    dataPages,
		StrictVerify: cfg.StrictVerify,
	}, dmem, encl)
	if err != nil {
		return nil, err
	}

	var fctl *fault.Controller
	if cfg.Faults.Enabled() {
		fctl, err = fault.NewController(cfg.Faults, fault.Env{
			Layout:     engine.ParityLayout(),
			Detect:     engine.CanDetectFaults(),
			Correct:    engine.CanCorrectFaults(),
			DataBlocks: dataPages * mem.BlocksPage,
		})
		if err != nil {
			return nil, err
		}
		engine.AttachFaults(fctl)
	}

	cores := make([]*cpu.Core, cfg.Cores)
	var filters []*llc.Filter
	for i := range cores {
		var src trace.Source
		if cfg.Sources != nil {
			src = cfg.Sources[i]
		} else {
			src = workload.NewGenerator(cfg.Benchmark, cfg.Seed+int64(i)*7919+1)
		}
		if cfg.FilterLLC {
			mb := cfg.LLCMBPerCore
			if mb <= 0 {
				mb = 2
			}
			f := llc.NewFilter(src, llc.Config{SizeMB: mb, Ways: 16})
			filters = append(filters, f)
			src = f
		}
		encl.Create(mem.EnclaveID(i))
		cores[i] = cpu.NewCore(i, cfg.CPU, src, cfg.OpsPerCore+cfg.WarmupOps)
	}

	r := &run{
		cfg:        cfg,
		scheme:     scheme,
		engine:     engine,
		dmem:       dmem,
		fctl:       fctl,
		cores:      cores,
		cpuPerDRAM: cpuPerDRAM,
		opsTarget:  uint64(cfg.Cores) * (cfg.OpsPerCore + cfg.WarmupOps),
		wd:         drainWatchdog{pending: engine.Pending},
	}
	attachObs(cfg, engine, dmem, cores, filters, &r.cpuCycle)
	if cfg.Obs != nil {
		r.series = cfg.Obs.Series
		r.prog = cfg.Obs.Progress
		if r.series != nil {
			r.series.Sample(0) // latch epoch baselines
			r.nextEpoch = r.series.Interval()
		}
	}
	return r, nil
}

// allDone reports whether every core has finished.
func (r *run) allDone() bool {
	for _, c := range r.cores {
		if !c.Done() {
			return false
		}
	}
	return true
}

// epochDue reports whether the time-series must close an epoch at the
// current CPU cycle.
func (r *run) epochDue() bool { return r.series != nil && r.cpuCycle >= r.nextEpoch }

// sample closes the epoch that epochDue reported.
func (r *run) sample() {
	r.series.Sample(r.cpuCycle)
	r.nextEpoch += r.series.Interval()
}

// progress reports live progress when the throttle lets it through.
func (r *run) progress() {
	if r.prog != nil {
		r.prog.Maybe(r.progressStat)
	}
}

func (r *run) progressStat() obs.ProgressStat {
	var ops uint64
	for _, c := range r.cores {
		ops += c.OpsIssued()
	}
	return obs.ProgressStat{CPUCycles: r.cpuCycle, OpsDone: ops, OpsTarget: r.opsTarget}
}

// never is the wake of a core that no number of cycles makes present an
// op, and the bound of an event that will not come.
const never = ^uint64(0)

// lazyCore is the loop's record of one core. The core has been charged
// every CPU cycle through at; the cycles since are owed to it. It needs a
// look in the iteration whose burst holds CPU cycle wake, the first cycle
// at which it may present an op, or, when parked, once backpressure clears.
// While set aside, it retires through CPU cycle retires.
type lazyCore struct {
	*cpu.Core
	at      uint64
	wake    uint64
	retires uint64
	parked  bool
}

// catchUp charges the core, with one Advance, the cycles it owes through
// CPU cycle to.
func (l *lazyCore) catchUp(to uint64) {
	if l.at < to {
		l.Advance(l.at+1, to-l.at)
		l.at = to
	}
}

// wakeAt returns the first CPU cycle at which a core charged through at
// and quiet for q more cycles may present an op.
func wakeAt(at, q uint64) uint64 {
	if q >= never-at {
		return never
	}
	return at + q + 1
}

// loop runs the simulation to completion. Each iteration ticks one DRAM
// cycle and then runs a burst of cpuPerDRAM CPU cycles, but it touches a
// core only at the core's own events. A core is stepped with Cycle only
// through bursts in which it may present an op to an engine that accepts
// one. Every other core is set aside and owes the cycles since: in them no
// read reaches it and no op of its is accepted, so one Advance charges
// them exactly. The owed cycles are charged before a completion reaches
// the core, at the end of its quiet horizon (QuietFor), when backpressure
// clears for a core parked by it, and before each epoch sample, which reads
// the cores' counters. The run ends only once every core is done, and a
// done core owes nothing, so the end needs no charge.
//
// A set-aside core is Settled, so it neither loads an op nor finishes while
// set aside. Its retirement in the stretch is a prefix, RetiringFor cycles
// long, so the watchdog knows in advance which iterations retire: those
// whose burst starts before some set-aside core's last retiring cycle. A
// completion can end that prefix early, by finishing the core, so the
// horizon is recomputed whenever the core is looked at.
//
// The loop keeps the earliest core wake, the last CPU cycle at which a
// set-aside core retires and the all-done flag as its own state. A
// delivered token or cleared backpressure sets a core's wake, and so the
// earliest wake, to 0. Nothing else moves a wake, a retirement horizon or a
// done flag but a look, and a look happens only in an iteration whose
// burst holds the earliest wake, so only such an iteration rescans the
// cores and recounts the done flags. Any other iteration touches no core,
// and with no core stepping, the burst's cycles pass at once.
//
// After an iteration with an idle engine, no completion, no stepped core
// and no finished core, nothing was enqueued, so Memory.NextEvent stays
// valid, and every iteration before the earliest of that event, the fault
// campaign's wake, the next epoch boundary and the first core wake repeats
// it. The loop jumps there at once, charges the watchdog the no-progress
// cycles a stepping loop would count, and stops where that loop would trip
// it. internal/sim/loop_test.go checks the loop against one that steps
// every core through every cycle.
func (r *run) loop(ctx context.Context) error {
	cancelable := ctx.Done() != nil
	if cancelable {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w at cycle 0: %w", ErrCanceled, err)
		}
	}
	var sinceCancelCheck uint64

	p := r.cpuPerDRAM
	lazy := make([]lazyCore, len(r.cores))
	for i, c := range r.cores {
		lazy[i].Core = c
	}
	sample := func() {
		for i := range lazy {
			lazy[i].catchUp(r.cpuCycle)
		}
		r.sample()
	}
	// Tokens encode their issuing core in the low bits (core.TokenCore), so
	// completion routing needs no token-to-owner map and the issue path is
	// the engine's Access method unwrapped.
	issue := r.engine.Access
	var (
		tokenBuf []uint64
		stepping []*lazyCore
		parked   bool // some core may be parked
		// The loop's kept view of the cores, current until a core is looked
		// at: the earliest wake, the last CPU cycle at which a set-aside
		// core retires, and whether every core is done, which needs a
		// recount after an iteration that looked.
		wake        uint64
		retireUntil uint64
		allDone     bool
		looked      = true
	)
	for {
		if cancelable {
			if sinceCancelCheck++; sinceCancelCheck >= cancelStride {
				sinceCancelCheck = 0
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("%w at cycle %d: %w", ErrCanceled, r.cpuCycle, err)
				}
			}
		}
		if looked {
			allDone = r.allDone()
		}
		if allDone {
			// Stop injecting and scrubbing so the run can drain;
			// in-flight corrections still resolve (Pending covers them).
			r.engine.QuiesceFaults()
			if r.engine.Pending() == 0 {
				return nil
			}
		}
		start, end := r.cpuCycle, r.cpuCycle+p
		tokens, engActive := r.engine.Tick(tokenBuf[:0])
		tokenBuf = tokens[:0]
		for _, tok := range tokens {
			l := &lazy[core.TokenCore(tok)]
			l.catchUp(start)
			l.OnComplete(tok)
			l.wake, l.parked = 0, false
			wake = 0
		}
		// Backpressure holds through the burst: the spill drains only in
		// Engine.Tick. A refused Access has no side effects, so a core the
		// engine refuses is parked, owing its cycles, until it clears.
		refused := r.engine.Backpressured()
		if parked && !refused {
			for i := range lazy {
				if lazy[i].parked {
					lazy[i].wake, lazy[i].parked = 0, false
				}
			}
			parked, wake = false, 0
		}
		progressed, finished := len(tokens) > 0, false
		stepping = stepping[:0]
		looked = wake <= end
		if looked {
			wake, retireUntil = never, 0
			for i := range lazy {
				l := &lazy[i]
				if l.wake <= end {
					// The core's own event: charge it, then step it through
					// the burst or set it aside anew.
					l.catchUp(start)
					l.retires = 0
					quiet := never
					if !refused {
						quiet = l.QuietFor()
					}
					if quiet < p {
						stepping = append(stepping, l)
					} else {
						// An unsettled core loads its next op or finishes in
						// the burst's first cycle, so it runs the burst now.
						if !l.Settled() {
							before := l.Retired()
							l.Advance(start+1, p)
							l.at = end
							progressed = progressed || l.Retired() != before
							finished = finished || l.Done()
							quiet = l.QuietFor()
						}
						if n := l.RetiringFor(); n > 0 {
							l.retires = l.at + n
						}
						if refused {
							l.wake, l.parked, parked = never, true, true
						} else {
							l.wake = wakeAt(l.at, quiet)
						}
					}
				}
				wake = min(wake, l.wake)
				retireUntil = max(retireUntil, l.retires)
			}
		}
		progressed = progressed || retireUntil > start
		// The stepped cores run cycle by cycle in core order, and cpuCycle,
		// the tracer's clock, rises once per cycle. Each core owns its trace
		// source, so a core set aside changes nothing a stepped one sees.
		// With no core stepping, nothing reads the clock inside the burst.
		if len(stepping) == 0 {
			r.cpuCycle = end
		}
		for r.cpuCycle < end {
			r.cpuCycle++
			for _, l := range stepping {
				before := l.Retired()
				if _, err := l.Cycle(r.cpuCycle, issue); err != nil {
					return err
				}
				progressed = progressed || l.Retired() != before
			}
		}
		for _, l := range stepping {
			l.at = end
		}
		if r.epochDue() {
			sample()
		}
		r.progress()
		if err := r.wd.observe(progressed, 1, allDone, r.cpuCycle); err != nil {
			return err
		}

		// Idle fast-forward.
		if engActive || len(tokens) > 0 || len(stepping) > 0 || finished {
			continue
		}
		now := r.dmem.Now()
		skip := never
		if next := min(r.dmem.NextEvent(), r.engine.FaultNextWake()); next != never {
			if next <= now {
				continue
			}
			skip = next - now
		}
		if r.series != nil {
			// Stop where cpuCycle reaches the epoch boundary, so samples
			// land on the cycles a stepping loop samples at.
			need := uint64(1)
			if r.nextEpoch > r.cpuCycle {
				need = (r.nextEpoch - r.cpuCycle + p - 1) / p
			}
			skip = min(skip, need)
		}
		if !refused {
			// The earliest core wake needs a look in the first burst that
			// holds it. While the engine refuses, no wake matters.
			if wake > r.cpuCycle {
				skip = min(skip, (wake-r.cpuCycle-1)/p)
			} else {
				skip = 0
			}
		}
		if skip == 0 {
			continue
		}
		// The skipped iterations whose bursts start before retireUntil
		// retire; the rest count toward the watchdog, and the skip stops
		// where a stepping loop would trip it.
		retiring := uint64(0)
		if retireUntil > r.cpuCycle {
			retiring = min(skip, (retireUntil-r.cpuCycle+p-1)/p)
			_ = r.wd.observe(true, retiring, allDone, r.cpuCycle) // progress never trips it
		}
		skip = min(skip, retiring+r.wd.budget(allDone))
		r.dmem.SkipTo(now + skip)
		r.cpuCycle += skip * p
		if r.epochDue() {
			sample()
		}
		r.progress()
		if err := r.wd.observe(false, skip-retiring, allDone, r.cpuCycle); err != nil {
			return err
		}
	}
}

// result closes the final (possibly partial) epoch, flushes progress so
// short runs still produce a non-empty time-series, and assembles the
// run's measurements.
func (r *run) result() *Result {
	if r.series != nil {
		r.series.Sample(r.cpuCycle)
	}
	if r.prog != nil {
		r.prog.Flush(r.progressStat())
	}

	res := &Result{
		Config: r.cfg,
		Scheme: r.scheme,
		Engine: r.engine,
		Memory: r.dmem,
	}
	var maxFinish uint64
	for _, c := range r.cores {
		res.PerCoreCycles = append(res.PerCoreCycles, c.FinishCycle())
		if c.FinishCycle() > maxFinish {
			maxFinish = c.FinishCycle()
		}
	}
	res.Overflows = r.engine.Overflows()
	if r.fctl != nil {
		r.fctl.Finalize(r.dmem.Now())
		res.Faults = r.fctl.Summarize()
	}
	res.Cycles = maxFinish
	if r.scheme.ModelOverflow {
		res.Cycles += r.engine.OverflowPenaltyCycles() / uint64(r.cfg.Cores)
	}
	p := energy.DefaultParams()
	res.MemoryJoules = energy.MemoryJoules(r.dmem, r.dmem.Now(), p)
	res.SystemEDP = energy.SystemEDP(res.MemoryJoules, res.Cycles, r.cfg.Cores, p)
	return res
}
