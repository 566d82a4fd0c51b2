// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each artifact declares
// the runs it needs and renders the paper's rows/series from their
// summaries; Run simulates the union of the named artifacts' runs as one
// batch, each distinct spec once, then renders them in order. The
// Fig*/Table*/Ablation* functions run one artifact and return its numbers
// for tests and downstream analysis.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
// experiment sweep. Each enabled directory receives one file per simulated
// spec, named after its job key (e.g. itesp_mcf.metrics.json); every parallel
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

// machine resolves the simulated system: the Cores/Channels overrides if
// set, otherwise the experiment's paper default.
func (o Options) machine(def machine) machine {
	def.cores = o.cores(def.cores)
	if o.Channels > 0 {
		def.channels = o.Channels
	}
	return def
}

// benches returns the benchmarks an experiment runs: the Benchmarks
// override if set, otherwise its paper defaults. The job set resolves the
// names (see union).
func (o Options) benches(defaults []string) []string {
	if o.Benchmarks == nil {
		return defaults
	}
	return o.Benchmarks
}

// allBenchmarks returns all 31 benchmark names in suite order.
func allBenchmarks() []string {
	var names []string
	for _, s := range workload.Specs() {
		names = append(names, s.Name)
	}
	return names
}

// machine is a simulated system's core and channel count.
type machine struct{ cores, channels int }

// paperMachine is the paper's default 4-core, 1-channel system.
var paperMachine = machine{4, 1}

// key names config's run of bench on m: "config/bench" on the paper
// machine, otherwise prefixed with the machine, e.g. "8c2ch/itesp/mcf", so
// that runs on different machines never share a key.
func (m machine) key(config, bench string) string {
	if m == paperMachine {
		return config + "/" + bench
	}
	return fmt.Sprintf("%dc%dch/%s/%s", m.cores, m.channels, config, bench)
}

// runs holds a job set's summaries under every declared key. Every key has
// one: the runner and the farm return every job's summary from a batch
// that does not fail.
type runs map[string]*sim.Summary

// norm compares config cur against config base on machine m: for each
// benchmark, metric(cur)/metric(base), keyed by benchmark and, in benchmark
// order, as a slice.
func (r runs) norm(m machine, benches []string, base, cur string, metric func(*sim.Summary) float64) (map[string]float64, []float64) {
	byBench := map[string]float64{}
	var vals []float64
	for _, b := range benches {
		v := metric(r[m.key(cur, b)]) / metric(r[m.key(base, b)])
		byBench[b] = v
		vals = append(vals, v)
	}
	return byBench, vals
}

// geo is the geometric mean of norm's values.
func (r runs) geo(m machine, benches []string, base, cur string, metric func(*sim.Summary) float64) float64 {
	_, vals := r.norm(m, benches, base, cur, metric)
	return stats.GeoMean(vals)
}

// Metrics that norm compares.
func cycles(s *sim.Summary) float64 { return float64(s.Cycles) }
func joules(s *sim.Summary) float64 { return s.MemoryJoules }
func edp(s *sim.Summary) float64    { return s.SystemEDP }

// artifact is one table, figure or ablation study: the runs it needs and
// how it prints them.
type artifact struct {
	jobs []runspec.Named
	// render prints the artifact to w from its runs' summaries, read under
	// its own keys. It returns the artifact's result and its -json value
	// (nil for none).
	render func(w io.Writer, r runs) (result, js any, err error)
}

// artifacts declares each artifact by name; the name is also its -json key.
var artifacts = map[string]func(Options) artifact{
	"table1":                   table1Artifact,
	"table2":                   table2Artifact,
	"fig2":                     fig2Artifact,
	"fig3":                     fig3Artifact,
	"fig5":                     fig5Artifact,
	"fig8":                     fig8Artifact,
	"fig9":                     fig9Artifact,
	"fig10":                    fig10Artifact,
	"fig11":                    fig11Artifact,
	"fig12":                    fig12Artifact,
	"fig13":                    fig13Artifact,
	"fig15":                    fig15Artifact,
	"scheme_sweep":             sweepArtifact,
	"table2_timing":            table2TimingArtifact,
	"ablation_parity_share":    parityShareArtifact,
	"ablation_itesp_leaf":      itespLeafArtifact,
	"ablation_strict_verify":   strictVerifyArtifact,
	"ablation_isolation_parts": isolationPartsArtifact,
}

// AllArtifacts lists every table and figure, in the order -all prints them.
var AllArtifacts = []string{"table1", "table2", "fig2", "fig3", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig15"}

// AblationArtifacts lists the ablation studies, in the order -ablations
// prints them.
var AblationArtifacts = []string{"ablation_parity_share", "ablation_itesp_leaf", "ablation_strict_verify", "ablation_isolation_parts"}

// jobSet is the named artifacts' declarations and the union of their runs.
type jobSet struct {
	arts []artifact
	// jobs holds one job per distinct spec, named by the spec's first
	// declaration.
	jobs []runspec.Named
	// job maps every declared key to the key of the job that runs its spec.
	job map[string]string
}

// declare builds the named artifacts' job set.
func declare(o Options, names []string) (*jobSet, error) {
	var arts []artifact
	for _, name := range names {
		decl, ok := artifacts[name]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown artifact %q", name)
		}
		arts = append(arts, decl(o))
	}
	return union(arts)
}

// union takes the union of the artifacts' runs. Duplicate specs are
// dropped by hash; a key declared for two different specs is an error. Every
// spec is validated here, so an unknown benchmark fails before anything
// simulates or prints.
func union(arts []artifact) (*jobSet, error) {
	set := &jobSet{arts: arts, job: map[string]string{}}
	hashes := map[string]string{} // declared key → spec hash
	first := map[string]string{}  // spec hash → key of its job
	for _, a := range arts {
		for _, j := range a.jobs {
			h, err := j.Spec.Hash()
			if err == nil {
				err = j.Spec.Validate()
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", j.Key, err)
			}
			if prev, ok := hashes[j.Key]; ok && prev != h {
				return nil, fmt.Errorf("experiments: key %q declared for two different specs", j.Key)
			}
			hashes[j.Key] = h
			if _, ok := first[h]; !ok {
				first[h] = j.Key
				set.jobs = append(set.jobs, j)
			}
			set.job[j.Key] = first[h]
		}
	}
	return set, nil
}

// Run regenerates the named artifacts (see AllArtifacts, AblationArtifacts,
// and "scheme_sweep" and "table2_timing") from one job set: it simulates
// the union of their runs as one batch, each distinct spec once, then
// prints the artifacts in order, separated by blank lines. It returns each
// artifact's -json value by name. A failed batch renders nothing.
func Run(o Options, names ...string) (map[string]any, error) {
	_, js, err := run(o, names)
	return js, err
}

// run is Run that also returns each artifact's result, in names order.
func run(o Options, names []string) ([]any, map[string]any, error) {
	set, err := declare(o, names)
	if err != nil {
		return nil, nil, err
	}
	r := runs{}
	if len(set.jobs) > 0 {
		if r, err = runBatch(o, set.jobs); err != nil {
			return nil, nil, err
		}
	}
	for key, job := range set.job {
		r[key] = r[job]
	}
	w := o.writer()
	vals := make([]any, len(set.arts))
	js := map[string]any{}
	for i, a := range set.arts {
		if i > 0 {
			fmt.Fprintln(w)
		}
		v, jv, err := a.render(w, r)
		if err != nil {
			return nil, nil, err
		}
		vals[i] = v
		if jv != nil {
			js[names[i]] = jv
		}
	}
	return vals, js, nil
}

// runOne runs a single artifact and returns its result.
func runOne[T any](o Options, name string) (T, error) {
	vals, _, err := run(o, []string{name})
	if err != nil {
		var zero T
		return zero, err
	}
	return vals[0].(T), nil
}

// runBatch executes jobs through the runner: a bounded worker pool with
// cache-aware scheduling (Options.CacheDir) and aggregated errors. When
// o.Obs enables artifacts, each simulated job runs with its own observer
// and writes its files before the job is counted done; cache hits skip the
// simulation and therefore produce no new artifacts.
func runBatch(o Options, jobs []runspec.Named) (map[string]*sim.Summary, error) {
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
		rjobs[i] = runner.Job{Key: j.Key, Spec: j.Spec}
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
func runBatchFarm(o Options, jobs []runspec.Named) (map[string]*sim.Summary, error) {
	if o.Obs.artifactsEnabled() {
		return nil, fmt.Errorf("experiments: -metrics/-timeseries/-trace-events artifacts are produced by the simulating process and cannot be combined with a farm run")
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
	return client.RunSweep(ctx, jobs, onDone)
}
