// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each Fig*/Table*
// function runs the required simulations, prints the paper's rows/series to
// the configured writer, and returns the numbers for tests and downstream
// analysis.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/obs/sweep"
	"repro/internal/runner"
	"repro/internal/runspec"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options control simulation scale; the defaults trade the paper's 5M ops
// per core for quick turnaround while preserving relative behavior.
type Options struct {
	// OpsPerCore is the number of memory operations per core.
	OpsPerCore uint64
	// Cores and Channels; zero means the experiment's paper default.
	Cores    int
	Channels int
	// Benchmarks restricts runs to the named benchmarks; nil means the
	// experiment's paper default (all 31 or the top-15).
	Benchmarks []string
	// Seed for trace generation.
	Seed int64
	// Parallel is the number of concurrent simulations (default: CPUs).
	Parallel int
	// W receives the printed table (default os.Stdout).
	W io.Writer
	// CacheDir, when non-empty, enables the content-addressed result
	// cache: completed runs are stored under <CacheDir>/<spec-hash>.json
	// and identical specs are served from disk instead of re-simulated,
	// which also makes interrupted sweeps resumable.
	CacheDir string
	// KeepGoing runs every job of a batch even after failures instead of
	// canceling the queued remainder on the first one.
	KeepGoing bool
	// Ctx, when non-nil, cancels sweeps cooperatively: once it fires,
	// queued jobs are skipped (counted canceled in RunnerStats) while
	// in-flight simulations drain to completion and land in the cache.
	Ctx context.Context
	// JobTimeout bounds each simulation attempt's wall-clock runtime
	// (driven through sim.RunContext); zero disables it. Retries re-runs
	// panicked or timed-out jobs deterministically up to N extra attempts.
	JobTimeout time.Duration
	Retries    int
	// FarmAddr, when non-empty, dispatches every batch to the simfarmd
	// coordinator at that address instead of simulating in-process: jobs
	// are submitted by content hash, executed by whatever workers the farm
	// has, and summaries collected back — bit-identical to a local run,
	// with the farm's corpus deduplicating across users and machines.
	// Per-run observability artifacts (Obs.MetricsDir etc.) cannot be
	// produced remotely and are rejected in combination with FarmAddr.
	FarmAddr string
	// FarmCA/FarmCert/FarmKey/FarmToken carry the farm client's transport
	// credentials (PEM file paths and bearer token — see
	// farm.NewClientFiles). All empty means a plaintext coordinator.
	FarmCA    string
	FarmCert  string
	FarmKey   string
	FarmToken string
	// RunnerStats, when non-nil, accumulates the runner's simulated /
	// cache-hit / failure counters across every batch of the experiment.
	// The runner updates it live (atomically) as jobs finish, so gauges
	// registered via its Register method report mid-sweep values.
	RunnerStats *runner.Stats
	// Telemetry, when non-nil, receives job-lifecycle events from every
	// batch of the experiment (see internal/obs/sweep); with a CacheDir
	// set, each batch journals its events to the sweep's telemetry.jsonl
	// beside the cache entries.
	Telemetry *sweep.Collector
	// Obs configures per-simulation observability artifacts and sweep
	// progress reporting.
	Obs ObsOptions
}

// ObsOptions attach the observability layer to every simulation of an
// experiment sweep. Each enabled directory receives one file per run,
// named after the run key (e.g. itesp_mcf.metrics.json); every parallel
// simulation gets its own obs.Observer, so the internal/stats single-owner
// contract holds.
type ObsOptions struct {
	// MetricsDir receives a metrics snapshot JSON per run.
	MetricsDir string
	// TimeseriesDir receives an epoch time-series CSV per run.
	TimeseriesDir string
	// TraceDir receives a Chrome trace-event JSON per run.
	TraceDir string
	// EpochCycles is the time-series sampling interval (default 50k CPU
	// cycles); TraceCap is the per-run event ring capacity (default 1M).
	EpochCycles uint64
	TraceCap    int
	// OnRunDone, when non-nil, is called after each job finishes with the
	// completed count, the total, the run's key, and whether the result
	// came from the cache. Calls are serialized.
	OnRunDone func(done, total int, key string, cached bool)
}

func (ob ObsOptions) artifactsEnabled() bool {
	return ob.MetricsDir != "" || ob.TimeseriesDir != "" || ob.TraceDir != ""
}

// observer builds a fresh per-run Observer, or nil when disabled.
func (ob ObsOptions) observer() *obs.Observer {
	if !ob.artifactsEnabled() {
		return nil
	}
	cfg := obs.Config{Metrics: ob.MetricsDir != ""}
	if ob.TimeseriesDir != "" {
		cfg.EpochCycles = ob.EpochCycles
		if cfg.EpochCycles == 0 {
			cfg.EpochCycles = 50_000
		}
	}
	if ob.TraceDir != "" {
		cfg.TraceCapacity = ob.TraceCap
		if cfg.TraceCapacity == 0 {
			cfg.TraceCapacity = 1 << 20
		}
	}
	return obs.New(cfg)
}

// writeArtifacts dumps one run's enabled artifacts under the configured
// directories (created on demand). The key's path separators are
// flattened so "itesp/mcf" becomes "itesp_mcf".
func (ob ObsOptions) writeArtifacts(key string, o *obs.Observer) error {
	if o == nil {
		return nil
	}
	name := strings.NewReplacer("/", "_", " ", "_").Replace(key)
	write := func(dir, suffix string, fn func(io.Writer) error) error {
		if dir == "" {
			return nil
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, name+suffix))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(ob.MetricsDir, ".metrics.json", func(w io.Writer) error {
		return o.Registry.Snapshot().WriteJSON(w)
	}); err != nil {
		return err
	}
	if err := write(ob.TimeseriesDir, ".timeseries.csv", func(w io.Writer) error {
		return o.Series.WriteCSV(w)
	}); err != nil {
		return err
	}
	return write(ob.TraceDir, ".trace.json", func(w io.Writer) error {
		return o.Trace.WriteChromeJSON(w)
	})
}

func (o Options) writer() io.Writer {
	if o.W == nil {
		return os.Stdout
	}
	return o.W
}

func (o Options) ops() uint64 {
	if o.OpsPerCore == 0 {
		return 50_000
	}
	return o.OpsPerCore
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// cores resolves the core count: the -cores override if set, otherwise the
// experiment's paper default.
func (o Options) cores(def int) int {
	if o.Cores > 0 {
		return o.Cores
	}
	return def
}

func (o Options) benchList(defaults []string) []workload.Spec {
	names := o.Benchmarks
	if names == nil {
		names = defaults
	}
	var specs []workload.Spec
	for _, n := range names {
		s, err := workload.ByName(n)
		if err != nil {
			panic(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// allBenchmarks returns all 31 benchmark names in suite order.
func allBenchmarks() []string {
	var names []string
	for _, s := range workload.Specs() {
		names = append(names, s.Name)
	}
	return names
}

// job is one simulation in a batch.
type job struct {
	key  string
	spec runspec.Spec
}

// runBatch executes jobs through the runner: a bounded worker pool with
// cache-aware scheduling (Options.CacheDir) and aggregated errors. When
// o.Obs enables artifacts, each simulated job runs with its own observer
// and writes its files before the job is counted done; cache hits skip the
// simulation and therefore produce no new artifacts.
func runBatch(o Options, jobs []job) (map[string]*sim.Summary, error) {
	if o.FarmAddr != "" {
		return runBatchFarm(o, jobs)
	}
	ropts := runner.Options{
		Parallel:   o.Parallel,
		KeepGoing:  o.KeepGoing,
		JobTimeout: o.JobTimeout,
		Retries:    o.Retries,
		Stats:      o.RunnerStats,
		Telemetry:  o.Telemetry,
	}
	if o.CacheDir != "" {
		ropts.Cache = runner.NewCache(o.CacheDir)
	}
	if o.Obs.artifactsEnabled() {
		ropts.Observer = func(runner.Job) *obs.Observer { return o.Obs.observer() }
		ropts.AfterSim = func(j runner.Job, ob *obs.Observer, _ *sim.Result) error {
			return o.Obs.writeArtifacts(j.Key, ob)
		}
	}
	if o.Obs.OnRunDone != nil {
		ropts.OnJobDone = func(done, total int, j runner.Job, cached bool, _ error) {
			o.Obs.OnRunDone(done, total, j.Key, cached)
		}
	}
	rjobs := make([]runner.Job, len(jobs))
	for i, j := range jobs {
		rjobs[i] = runner.Job{Key: j.key, Spec: j.spec}
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// RunnerStats is threaded through runner.Options.Stats, so the runner
	// itself keeps it live-updated as jobs finish; no end-of-batch fold-in.
	results, _, err := runner.Run(ctx, ropts, rjobs)
	return results, err
}

// runBatchFarm dispatches one batch to a sweep farm instead of the
// in-process runner. Specs travel by content hash, so the farm's corpus
// serves previously computed runs without dispatch and results are
// bit-identical to a local run of the same specs.
func runBatchFarm(o Options, jobs []job) (map[string]*sim.Summary, error) {
	if o.Obs.artifactsEnabled() {
		return nil, fmt.Errorf("experiments: -metrics/-timeseries/-trace-events artifacts are produced by the simulating process and cannot be combined with a farm run")
	}
	named := make([]runspec.Named, len(jobs))
	for i, j := range jobs {
		named[i] = runspec.Named{Key: j.key, Spec: j.spec}
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	client, err := farm.NewClientFiles(o.FarmAddr, o.FarmCA, o.FarmCert, o.FarmKey, o.FarmToken)
	if err != nil {
		return nil, err
	}
	if err := client.WaitReady(ctx, 10*time.Second); err != nil {
		return nil, err
	}
	var onDone func(done, total int, key string, cached bool)
	if o.Obs.OnRunDone != nil {
		onDone = o.Obs.OnRunDone
	}
	return client.RunSweep(ctx, named, onDone)
}

// geoMeanOver computes the geometric mean of metric over the given
// benchmark names, reading values from vals[name].
func geoMeanOver(names []string, vals map[string]float64) float64 {
	var vs []float64
	for _, n := range names {
		if v, ok := vals[n]; ok {
			vs = append(vs, v)
		}
	}
	return stats.GeoMean(vs)
}

// sortedKeys returns map keys in sorted order for deterministic printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
