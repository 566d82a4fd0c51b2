// Command experiments regenerates the paper's tables and figures. Each
// experiment prints the corresponding rows/series; see DESIGN.md for the
// per-experiment index and EXPERIMENTS.md for paper-vs-measured results.
//
// Usage:
//
//	experiments -fig 8 [-ops 50000] [-bench mcf,pr] [-seed 42]
//	experiments -table 2
//	experiments -all
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/sweep"
	"repro/internal/runner"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (2,3,5,8,9,10,11,12,13,15)")
	table := flag.Int("table", 0, "table number to regenerate (1,2)")
	table2Timing := flag.Bool("table2-timing", false, "run the Table II timing-domain fault-injection campaign (Synergy vs ITESP DUE ordering)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	ablations := flag.Bool("ablations", false, "run the DESIGN.md ablation studies")
	schemeSweep := flag.Bool("scheme-sweep", false, "run every registered secure-memory backend through the normalized-time sweep (Fig 8 machinery, N schemes)")
	ops := flag.Uint64("ops", 50_000, "memory operations per core")
	bench := flag.String("bench", "", "comma-separated benchmark subset (default: experiment's own)")
	seed := flag.Int64("seed", 42, "trace generation seed")
	parallel := flag.Int("parallel", 0, "concurrent simulations (default: CPUs-1)")
	farmAddr := flag.String("farm", "", "run every sweep on the simfarmd coordinator at this address instead of in-process (results bit-identical; the farm corpus serves cache hits)")
	farmCA := flag.String("farm-ca", "", "with -farm: CA bundle (PEM) pinning the coordinator's TLS certificate; implies https")
	farmCert := flag.String("farm-cert", "", "with -farm: client TLS certificate (PEM) for mutual TLS; requires -farm-key")
	farmKey := flag.String("farm-key", "", "with -farm: client TLS private key (PEM)")
	farmToken := flag.String("farm-token", "", "with -farm: bearer token attached to every request (Authorization: Bearer)")
	jsonPath := flag.String("json", "", "also write machine-readable results to this file")
	metricsDir := flag.String("metrics", "", "write a per-run metrics snapshot JSON under this directory")
	timeseriesDir := flag.String("timeseries", "", "write a per-run epoch time-series CSV under this directory")
	traceDir := flag.String("trace-events", "", "write a per-run Chrome trace-event JSON under this directory")
	epoch := flag.Uint64("epoch", 0, "epoch interval in CPU cycles for -timeseries (0 = default 50000)")
	traceCap := flag.Int("trace-cap", 0, "per-run event ring capacity for -trace-events (0 = default 1M)")
	progress := flag.Bool("progress", false, "print a live sweep progress line to stderr: completed/total, cache-hit ratio, jobs/sec, ETA")
	statusAddr := flag.String("status-addr", "", "serve the live sweep status API on this address: /progress (JSON snapshot), /metrics (Prometheus), /events (lifecycle stream), /debug/pprof")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory; identical runs are served from <dir>/<hash>.json instead of re-simulated")
	noCache := flag.Bool("no-cache", false, "disable the result cache even if -cache-dir or -resume is set")
	resume := flag.Bool("resume", false, "resume an interrupted sweep: enable the cache (default .runcache) so only missing runs re-simulate")
	keepGoing := flag.Bool("keep-going", false, "run every job of a batch even after failures instead of canceling the queued remainder")
	jobTimeout := flag.Duration("job-timeout", 0, "per-simulation wall-clock deadline (e.g. 5m); a wedged job is abandoned and counted timed out (0 = none)")
	retries := flag.Int("retries", 0, "deterministic re-runs for panicked or timed-out jobs (spec errors are never retried)")
	flag.Parse()

	// A first SIGINT/SIGTERM cancels the sweep cooperatively: queued jobs
	// are skipped while in-flight simulations drain into the cache and the
	// sweep journal is flushed. A second signal force-kills (stop restores
	// the default handler once the context has fired).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	if *resume && *cacheDir == "" {
		*cacheDir = ".runcache"
	}
	if *noCache {
		*cacheDir = ""
	}

	var runnerStats runner.Stats

	// Sweep telemetry is attached only when something consumes it (-status-addr
	// or -progress); the default path runs with a nil collector and is
	// bit-identical to a telemetry-free sweep.
	var col *sweep.Collector
	if *statusAddr != "" || *progress {
		col = sweep.New()
	}
	if *statusAddr != "" {
		reg := obs.NewRegistry()
		runnerStats.Register(reg)
		col.Register(reg)
		srv, err := sweep.Start(*statusAddr, sweep.ServerConfig{
			Collector: col,
			Metrics:   func() *obs.Snapshot { return reg.Snapshot() },
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "status server:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "[status server on http://%s — /progress /metrics /events /debug/pprof]\n", srv.Addr())
	}

	o := experiments.Options{
		OpsPerCore:  *ops,
		Seed:        *seed,
		Parallel:    *parallel,
		FarmAddr:    *farmAddr,
		FarmCA:      *farmCA,
		FarmCert:    *farmCert,
		FarmKey:     *farmKey,
		FarmToken:   *farmToken,
		CacheDir:    *cacheDir,
		KeepGoing:   *keepGoing,
		Ctx:         ctx,
		JobTimeout:  *jobTimeout,
		Retries:     *retries,
		RunnerStats: &runnerStats,
		Telemetry:   col,
		Obs: experiments.ObsOptions{
			MetricsDir:    *metricsDir,
			TimeseriesDir: *timeseriesDir,
			TraceDir:      *traceDir,
			EpochCycles:   *epoch,
			TraceCap:      *traceCap,
		},
	}
	if *progress {
		o.Obs.OnRunDone = func(done, total int, key string, cached bool) {
			line := fmt.Sprintf("[%d/%d] %s", done, total, key)
			if cached {
				line += " (cached)"
			}
			if *farmAddr == "" { // farm runs do not feed the local collector
				p := col.Snapshot()
				line += fmt.Sprintf(" | cache %.0f%% | %.1f jobs/s", 100*p.CacheHitRatio, p.JobsPerSec)
				if p.EtaS > 0 {
					line += fmt.Sprintf(" | ETA %s", (time.Duration(p.EtaS * float64(time.Second))).Round(time.Second))
				}
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if *bench != "" {
		o.Benchmarks = strings.Split(*bench, ",")
	}

	var names []string
	switch {
	case *all:
		names = experiments.AllArtifacts
	case *ablations:
		names = experiments.AblationArtifacts
	case *schemeSweep:
		names = []string{"scheme_sweep"}
	case *table2Timing:
		names = []string{"table2_timing"}
	case *fig != 0:
		names = []string{fmt.Sprintf("fig%d", *fig)}
	case *table != 0:
		names = []string{fmt.Sprintf("table%d", *table)}
	default:
		flag.Usage()
		os.Exit(2)
	}
	jsonOut, err := experiments.Run(o, names...)
	if err == nil && *all {
		fmt.Println() // -all ends every artifact with a blank line, the last one too
	}
	if runnerStats.Jobs > 0 {
		fmt.Fprintf(os.Stderr, "[runner: %s]\n", runnerStats)
	}
	if ctx.Err() != nil {
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "interrupted: in-flight jobs drained into %s (sweep journal alongside)\n", *cacheDir)
			fmt.Fprintf(os.Stderr, "rerun the same command with -cache-dir %s (or -resume) to continue without re-simulating completed jobs\n", *cacheDir)
		} else {
			fmt.Fprintln(os.Stderr, "interrupted: no cache directory was set, so completed work was not persisted; next time add -cache-dir DIR or -resume to make the sweep resumable")
		}
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(jsonOut, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "json output:", err)
			os.Exit(1)
		}
	}
}
