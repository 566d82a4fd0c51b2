// Command itespsim runs a single secure-memory simulation and prints its
// key metrics — the quickest way to poke at one (scheme, benchmark,
// mapping) configuration.
//
// Usage:
//
//	itespsim -scheme itesp -bench mcf -cores 4 -channels 1 -ops 100000
//
// Declarative runs (see DESIGN.md "Run orchestration"): -spec loads a
// runspec JSON instead of the knob flags, and -result-json writes the
// run's spec, content hash, and summary as a runner cache entry:
//
//	itespsim -spec run.json -result-json out.json
//
// Observability (see README "Observability"):
//
//	itespsim -scheme itesp -bench mcf -metrics m.json -timeseries ts.csv \
//	         -trace-events tr.json -progress
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/obs/sweep"
	"repro/internal/runner"
	"repro/internal/runspec"
	"repro/internal/sim"
	"repro/internal/trace"
)

// liveProgress stores the latest simulation ProgressStat for the status
// server's /progress endpoint.
type liveProgress struct {
	mu   sync.Mutex
	stat obs.ProgressStat
	ok   bool
}

func (l *liveProgress) set(s obs.ProgressStat) {
	l.mu.Lock()
	l.stat, l.ok = s, true
	l.mu.Unlock()
}

func (l *liveProgress) get() (obs.ProgressStat, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stat, l.ok
}

func main() {
	scheme := flag.String("scheme", "itesp", "scheme name: "+fmt.Sprint(core.SchemeNames()))
	bench := flag.String("bench", "mcf", "benchmark name (Table IV)")
	cores := flag.Int("cores", 4, "cores / program copies")
	channels := flag.Int("channels", 1, "DDR channels")
	policy := flag.String("policy", "", "address mapping: column|rank|rbh2|rbh4 (default: scheme's best)")
	ops := flag.Uint64("ops", 100_000, "memory operations per core")
	seed := flag.Int64("seed", 42, "trace seed")
	metaKB := flag.Int("metakb", 0, "metadata cache KB per core (0 = paper default 16)")
	strict := flag.Bool("strict", false, "disable speculative verification")
	ddr4 := flag.Bool("ddr4", false, "use DDR4-2400 timing instead of DDR3-1600")
	llcFilter := flag.Bool("llc", false, "interpose a per-core LLC filter (emergent writebacks)")
	traceFiles := flag.String("trace", "", "comma-separated per-core trace files (from tracegen) instead of generators")
	metrics := flag.String("metrics", "", "write end-of-run metrics snapshot to this file (JSON; *.prom writes Prometheus text)")
	timeseries := flag.String("timeseries", "", "write epoch time-series to this file (CSV; *.json writes JSON)")
	epoch := flag.Uint64("epoch", 50_000, "epoch interval in CPU cycles for -timeseries")
	traceEvents := flag.String("trace-events", "", "write Chrome trace-event JSON to this file (open in Perfetto)")
	traceCap := flag.Int("trace-cap", 1<<20, "event ring-buffer capacity for -trace-events (oldest dropped)")
	progress := flag.Bool("progress", false, "print live simulation progress to stderr")
	statusAddr := flag.String("status-addr", "", "serve the live status API on this address: /progress (JSON run snapshot), /debug/pprof")
	specPath := flag.String("spec", "", "load the run spec from this JSON file instead of the knob flags (\"-\" reads stdin)")
	resultJSON := flag.String("result-json", "", "write the run's spec, content hash, and summary (a runner cache entry) to this file")
	faults := flag.String("faults", "", "fault-injection campaign, e.g. n=16,kind=chip,seed=7,span=4096,scrub=100 (see README \"Reliability & fault injection\")")
	listSchemes := flag.Bool("list-schemes", false, "print every registered scheme with its one-line description and exit")
	flag.Parse()

	if *listSchemes {
		descs := core.Descriptions()
		for _, name := range core.SchemeNames() {
			fmt.Printf("%-16s %s\n", name, descs[name])
		}
		return
	}

	var live *liveProgress
	if *statusAddr != "" {
		live = &liveProgress{}
		srv, err := sweep.Start(*statusAddr, sweep.ServerConfig{Run: live.get})
		if err != nil {
			fmt.Fprintln(os.Stderr, "status server:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "[status server on http://%s — /progress /debug/pprof]\n", srv.Addr())
	}

	var sp runspec.Spec
	if *specPath != "" {
		if err := loadSpec(*specPath, &sp); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		sp = runspec.Spec{
			Scheme:        *scheme,
			Benchmark:     *bench,
			Cores:         *cores,
			Channels:      *channels,
			Policy:        *policy,
			OpsPerCore:    *ops,
			Seed:          *seed,
			MetaKBPerCore: *metaKB,
			StrictVerify:  *strict,
			DDR4:          *ddr4,
			FilterLLC:     *llcFilter,
		}
	}
	if *faults != "" {
		fc, err := fault.ParseFlag(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sp.Faults = &fc
	}
	hash, err := sp.Hash()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg, err := sp.SimConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	spec := cfg.Benchmark

	var sources []trace.Source
	var paths []string
	var readers []*trace.Reader
	if *traceFiles != "" {
		// Trace-driven input lives outside the spec, so such a run has no
		// honest content address.
		if *specPath != "" || *resultJSON != "" {
			fmt.Fprintln(os.Stderr, "-trace cannot be combined with -spec or -result-json: trace-driven runs are not content-addressable")
			os.Exit(1)
		}
		paths = strings.Split(*traceFiles, ",")
		if len(paths) != cfg.Cores {
			fmt.Fprintf(os.Stderr, "need %d trace files, got %d\n", cfg.Cores, len(paths))
			os.Exit(1)
		}
		for _, p := range paths {
			f, err := os.Open(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			readers = append(readers, trace.NewReader(f))
			sources = append(sources, readers[len(readers)-1])
		}
	}

	var ob *obs.Observer
	if *metrics != "" || *timeseries != "" || *traceEvents != "" || *progress || live != nil {
		obCfg := obs.Config{Metrics: *metrics != ""}
		if *timeseries != "" {
			obCfg.EpochCycles = *epoch
		}
		if *traceEvents != "" {
			obCfg.TraceCapacity = *traceCap
		}
		if *progress || live != nil {
			print, feed := *progress, live
			obCfg.Progress = func(s obs.ProgressStat) {
				if feed != nil {
					feed.set(s)
				}
				if !print {
					return
				}
				pct := 0.0
				if s.OpsTarget > 0 {
					pct = 100 * float64(s.OpsDone) / float64(s.OpsTarget)
				}
				fmt.Fprintf(os.Stderr, "\rcycle %12d  ops %d/%d (%5.1f%%)", s.CPUCycles, s.OpsDone, s.OpsTarget, pct)
			}
		}
		ob = obs.New(obCfg)
	}

	// SIGINT/SIGTERM cancels the run cooperatively through the simulator's
	// context plumbing; the exit code then distinguishes an interrupt (130)
	// from a wedged simulation (3) and other failures (1).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg.Sources = sources
	cfg.Obs = ob
	r, err := sim.RunContext(ctx, cfg)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	// A decoding error ends that core's input early, so the results would
	// describe a different, shorter trace.
	if terr := traceErr(paths, readers); terr != nil {
		fmt.Fprintln(os.Stderr, terr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitCode(err))
	}
	if err := writeArtifacts(ob, *metrics, *timeseries, *traceEvents); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *resultJSON != "" {
		entry := runner.Entry{
			Version: runner.EntryVersion,
			Hash:    hash,
			Spec:    sp.Normalized(),
			Summary: r.Summarize(),
		}
		data, err := json.MarshalIndent(entry, "", "  ")
		if err == nil {
			err = os.WriteFile(*resultJSON, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "result-json:", err)
			os.Exit(1)
		}
	}

	if sources == nil {
		fmt.Printf("spec hash:          %s\n", hash)
	}
	fmt.Printf("scheme:             %s (policy %s)\n", r.Scheme.Name, r.Config.PolicyName)
	fmt.Printf("benchmark:          %s (%s, %d MB WS, %.1f MPKI)\n", spec.Name, spec.Pattern, spec.WorkingSetMB, spec.MPKI)
	fmt.Printf("execution time:     %d CPU cycles\n", r.Cycles)
	fmt.Printf("metadata per op:    %.3f extra accesses\n", r.MetaPerOp())
	fmt.Printf("row-buffer hit:     %.3f\n", r.RowHitRate())
	fmt.Printf("metadata cache hit: %.3f\n", r.MetaCacheHitRate())
	fmt.Printf("memory energy:      %.4f J\n", r.MemoryJoules)
	fmt.Printf("system EDP:         %.6f Js\n", r.SystemEDP)
	if r.Scheme.ModelOverflow {
		fmt.Printf("counter overflows:  %d\n", r.Overflows)
	}
	st := &r.Engine.Stats
	fmt.Printf("pattern cases:      ")
	for c, f := range st.PatternFrac() {
		fmt.Printf("%s=%.2f ", core.PatternCase(c), f)
	}
	fmt.Println()
	for _, k := range []mem.Kind{mem.KindMAC, mem.KindCounter, mem.KindTree, mem.KindParity} {
		rd, wr := st.KindPerOp(k)
		if rd+wr > 0 {
			fmt.Printf("  %-8s reads/op=%.3f writes/op=%.3f\n", k, rd, wr)
		}
	}
	if fs := r.Faults; fs != nil {
		fmt.Printf("fault campaign:     injected=%d detected=%d corrected=%d (demand %d, scrub %d) due=%d sdc=%d latent=%d\n",
			fs.Injected, fs.Detected, fs.Corrected(), fs.CorrectedDemand, fs.CorrectedScrub, fs.DUE, fs.SDC, fs.Latent)
		fmt.Printf("  scrub reads=%d correction reads=%d fix writes=%d mean detect=%.0f cyc mean repair=%.0f cyc\n",
			fs.ScrubReads, fs.CorrectionReads, fs.FixWrites, fs.MeanDetect, fs.MeanRepair)
		if err := fs.CheckInvariant(); err != nil {
			fmt.Fprintln(os.Stderr, "warning:", err)
		}
	}
	if ob != nil && ob.Trace != nil && ob.Trace.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "trace: ring wrapped, %d oldest events dropped (raise -trace-cap)\n", ob.Trace.Dropped())
	}
}

// exitCode maps a simulation failure to the documented process exit code:
// 130 (128+SIGINT) when the run was interrupted, 3 when the drain watchdog
// caught a wedged simulation (sim.ErrDeadlock / sim.ErrDrainStall), and 1
// for every other failure. Scripts can branch on the class without parsing
// error text.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, sim.ErrCanceled):
		return 130
	case errors.Is(err, sim.ErrDeadlock), errors.Is(err, sim.ErrDrainStall):
		return 3
	default:
		return 1
	}
}

// traceErr returns the first decoding error among the trace readers, naming
// its file; readers[i] reads paths[i].
func traceErr(paths []string, readers []*trace.Reader) error {
	for i, r := range readers {
		if err := r.Err(); err != nil {
			return fmt.Errorf("trace file %s: %w", paths[i], err)
		}
	}
	return nil
}

// loadSpec reads a runspec JSON from path ("-" for stdin), rejecting
// unknown fields so a typo'd knob fails loudly instead of silently running
// the defaults.
func loadSpec(path string, sp *runspec.Spec) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(sp); err != nil {
		return fmt.Errorf("spec %s: %w", path, err)
	}
	return nil
}

// writeArtifacts dumps the enabled observability outputs to their files,
// picking the format from the file extension.
func writeArtifacts(ob *obs.Observer, metrics, timeseries, traceEvents string) error {
	write := func(path string, fn func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		return f.Close()
	}
	if metrics != "" {
		snap := ob.Registry.Snapshot()
		if err := write(metrics, func(f *os.File) error {
			if filepath.Ext(metrics) == ".prom" {
				return snap.WritePrometheus(f)
			}
			return snap.WriteJSON(f)
		}); err != nil {
			return err
		}
	}
	if timeseries != "" {
		if err := write(timeseries, func(f *os.File) error {
			if filepath.Ext(timeseries) == ".json" {
				return ob.Series.WriteJSON(f)
			}
			return ob.Series.WriteCSV(f)
		}); err != nil {
			return err
		}
	}
	if traceEvents != "" {
		if err := write(traceEvents, func(f *os.File) error {
			return ob.Trace.WriteChromeJSON(f)
		}); err != nil {
			return err
		}
	}
	return nil
}
