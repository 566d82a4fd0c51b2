// Command benchmark is the repository's benchmark: it runs one of two
// closed-loop sweep workloads through the simulator's public entry points
// (runner.Run with experiments.Fig8's job list, or an in-process farm
// coordinator, worker and client), checks every job's summary, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a separate
// traced run. The last line of standard output is one JSON result object.
// README.md describes the workloads and metrics; run.py builds and runs it.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/runner"
	"repro/internal/sim"
)

// buildDir holds everything the benchmark writes, relative to the
// directory it runs in.
const buildDir = ".bench_build"

// runLimit bounds one invocation; queued jobs are canceled past it.
const runLimit = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: sweep-intensive or farm-overlap")
	seed := fs.Int64("seed", 42, "workload seed: the simulator's trace-generation seed")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	traceMode := fs.Int("trace", 0, "0: timed runs, print end-to-end metrics; 1: add a traced run, print per-layer metrics")
	outDir := fs.String("out", filepath.Join(buildDir, "out"), "directory for the traced run's span file and CPU profile")
	write := fs.Bool("write-refs", false, "record the reference digests of the default seed for every workload in "+refsFile+" and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *write {
		if err := recordRefs(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload (sweep-intensive, farm-overlap), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	s := &bench{w: w, seed: *seed, tmp: tmp}
	if err := s.loadReference(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traceMode == 0 {
		err = s.timed(ctx, budget)
		if err == nil {
			res = s.endToEnd(stdout)
		}
	} else {
		res, err = s.traced(ctx, budget, *outDir, stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one invocation: a workload, a seed, and every iteration run.
type bench struct {
	w    workloadDef
	seed int64
	tmp  string
	// stored holds the default seed's recorded digests; inproc the farm
	// reference computed in this process; first the first iteration's
	// digests. A job fails when its summary is missing or differs from
	// any of them.
	stored, inproc, first map[string]string
	// leasedCounts totals the simulated counts of the jobs the farm leases.
	leasedCounts simCounts

	iters             []*iteration
	attempted, failed int
	problems          []string
	// digest folds the first iteration's summaries; cycles and dataOps
	// total them.
	digest          string
	cycles, dataOps uint64
}

func (s *bench) loadReference() error {
	r, err := loadRefs()
	if err != nil {
		return err
	}
	s.stored, err = r.expected(s.w, s.seed)
	return err
}

// iterate runs one set-up and timed phase and checks its results.
func (s *bench) iterate(ctx context.Context, tr *tracing) (*iteration, error) {
	run := runSweep
	if s.w.farm {
		run = runFarm
	}
	it, err := run(ctx, s.w, s.seed, s.tmp, tr)
	if it == nil {
		return nil, err
	}
	if err != nil {
		first, _, _ := strings.Cut(err.Error(), "\n")
		s.problem(first)
	}
	if s.w.farm && s.inproc == nil {
		if err := s.farmReference(ctx, it); err != nil {
			return nil, err
		}
	}
	got := digests(it.sums)
	if s.first == nil {
		s.first = got
	}
	bad, ex := failures([]map[string]string{s.stored, s.inproc, s.first}, got)
	for _, k := range s.w.keys(s.seed) {
		if _, ok := got[k]; !ok && !bad[k] {
			bad[k] = true
			if len(ex) < 3 {
				ex = append(ex, k+" missing")
			}
		}
	}
	if len(ex) > 0 {
		s.problem("summaries missing or different from the reference: " + strings.Join(ex, ", "))
	}
	it.failed = len(bad)
	s.attempted += s.w.size()
	s.failed += it.failed
	if len(s.iters) == 0 {
		s.digest = setDigest(got)
		for _, sum := range it.sums {
			s.cycles += sum.Cycles
			s.dataOps += sum.DataOps
		}
	}
	// Keep only what the metrics need, so the process's peak memory does
	// not grow with the number of repetitions.
	it.sums, it.corpusSums = nil, nil
	if tr == nil {
		it.spans = nil
	}
	s.iters = append(s.iters, it)
	return it, nil
}

func (s *bench) problem(p string) {
	for _, q := range s.problems {
		if q == p {
			return
		}
	}
	s.problems = append(s.problems, p)
}

// farmReference runs the jobs the farm leases in-process, once per
// invocation; with the corpus jobs' in-process summaries from set-up it
// is the reference the farm's results must equal byte for byte.
func (s *bench) farmReference(ctx context.Context, it *iteration) error {
	b := s.w.batch
	inCorpus := map[string]bool{}
	for _, j := range s.w.corpus.jobs(s.seed) {
		inCorpus[j.Key] = true
	}
	var leased []runner.Job
	for _, j := range b.jobs(s.seed) {
		if !inCorpus[j.Key] {
			leased = append(leased, j)
		}
	}
	sums, err := inProcess(ctx, leased, &s.leasedCounts)
	if err != nil {
		return fmt.Errorf("in-process reference: %w", err)
	}
	ref := map[string]*sim.Summary{}
	for k, v := range it.corpusSums {
		ref[b.m.name+"/"+k] = v
	}
	for k, v := range sums {
		ref[b.m.name+"/"+k] = v
	}
	s.inproc = digests(ref)
	return nil
}

// timed repeats the workload until the next iteration would overrun the
// budget; every iteration is a set-up plus a timed phase.
func (s *bench) timed(ctx context.Context, budget time.Duration) error {
	start := time.Now()
	for {
		if _, err := s.iterate(ctx, nil); err != nil {
			return err
		}
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(s.iters)) > budget || ctx.Err() != nil {
			return nil
		}
	}
}

// endToEnd prints the end-to-end metrics with their sample counts and
// returns the result line.
func (s *bench) endToEnd(out io.Writer) result {
	// Every statistic is taken per iteration (timed phase) and the run
	// reports the median over iterations, so a host slowdown during part
	// of the run shifts it less than pooling the samples would.
	var rates, setups, p50s, p90s []float64
	samples := 0
	for _, it := range s.iters {
		rate := 0.0
		if it.wall > 0 {
			rate = float64(s.w.size()-it.failed) / it.wall.Seconds()
		}
		rates = append(rates, rate)
		for _, d := range it.setups {
			setups = append(setups, d.Seconds())
		}
		p50, _ := percentile(it.serviceMS, 0.5)
		p90, tailOK := percentile(it.serviceMS, 0.9)
		if !tailOK {
			s.problem(fmt.Sprintf("job_ms_p90: fewer than %d of %d samples beyond it", minTail, len(it.serviceMS)))
		}
		p50s, p90s = append(p50s, p50), append(p90s, p90)
		samples += len(it.serviceMS)
	}
	rss := peakRSSMiB()
	ms := map[string]metric{
		"jobs_per_s":  {median(rates), "jobs/s"},
		"job_ms_p50":  {median(p50s), "ms"},
		"job_ms_p90":  {median(p90s), "ms"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {rss, "MiB"},
	}
	n := len(s.iters)
	s.header(out)
	fmt.Fprintf(out, "  %-12s %12.4f jobs/s  median of %d iterations\n", "jobs_per_s", ms["jobs_per_s"].Value, n)
	fmt.Fprintf(out, "  %-12s %12.3f ms      median of %d iterations, %d samples in all\n", "job_ms_p50", ms["job_ms_p50"].Value, n, samples)
	fmt.Fprintf(out, "  %-12s %12.3f ms      median of %d iterations, each with >= %d samples beyond\n", "job_ms_p90", ms["job_ms_p90"].Value, n, minTail)
	fmt.Fprintf(out, "  %-12s %12.6f s       median of %d set-ups\n", "setup_s", ms["setup_s"].Value, len(setups))
	fmt.Fprintf(out, "  %-12s %12.1f MiB     peak of this process\n", "peak_rss_mb", rss)
	fmt.Fprintf(out, "  %-12s %12.4f ratio   %d of %d jobs\n", "fail_frac", s.failFrac(), s.failed, s.attempted)
	var walls []string
	for _, it := range s.iters {
		walls = append(walls, fmt.Sprintf("%.3f", it.wall.Seconds()))
	}
	fmt.Fprintf(out, "  timed phases: %s s\n", strings.Join(walls, " "))
	s.footer(out)
	return s.result(ms)
}

func (s *bench) failFrac() float64 {
	if s.attempted == 0 {
		return 1
	}
	return float64(s.failed) / float64(s.attempted)
}

func (s *bench) header(out io.Writer) {
	fmt.Fprintf(out, "benchmark %s seed %d: %d iterations of %d jobs, closed loop, 1 simulation worker\n",
		s.w.name, s.seed, len(s.iters), s.w.size())
}

// footer prints the workload's summary digest, and every problem found.
// Every iteration's summaries were checked against the first's, so one
// digest stands for all.
func (s *bench) footer(out io.Writer) {
	fmt.Fprintf(out, "simulated per iteration: %d cycles, %d data ops\n", s.cycles, s.dataOps)
	fmt.Fprintf(out, "digest %s seed %d: %s\n", s.w.name, s.seed, s.digest)
	for _, p := range s.problems {
		fmt.Fprintf(out, "problem: %s\n", p)
	}
}

func (s *bench) result(ms map[string]metric) result {
	return result{
		Correct:   s.failed == 0 && len(s.problems) == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   ms,
	}
}

// peakRSSMiB reads this process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// traced runs untraced iterations for half the budget, then one traced
// iteration with spans and a CPU profile of its timed phase, and prints
// the per-layer metrics.
func (s *bench) traced(ctx context.Context, budget time.Duration, outDir string, out io.Writer) (result, error) {
	if err := s.timed(ctx, budget/2); err != nil {
		return result{}, err
	}
	var walls []float64
	for _, it := range s.iters {
		walls = append(walls, it.wall.Seconds())
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	tr := &tracing{rec: newRecorder(), profile: filepath.Join(outDir, s.w.name+".cpu.pprof")}
	it, err := s.iterate(ctx, tr)
	if err != nil {
		return result{}, err
	}
	if tr.err != nil {
		return result{}, tr.err
	}
	tr.rec.add(span{id: tr.rec.root, lane: "workload", name: s.w.name, end: tr.rec.now()})
	spanFile := filepath.Join(outDir, s.w.name+".trace.json")
	if err := writeSpans(spanFile, "benchmark "+s.w.name, tr.rec.all()); err != nil {
		return result{}, err
	}
	text, err := pprofTraces(tr.profile)
	if err != nil {
		return result{}, err
	}
	a, err := attribute(text)
	if err != nil {
		return result{}, err
	}
	counts := it.counts
	if s.w.farm {
		counts = s.leasedCounts
	}
	ms := layerMetrics(s.w, it, counts, a)
	ms["trace.overhead_pct"] = metric{100 * (it.wall.Seconds()/median(walls) - 1), "%"}

	s.header(out)
	fmt.Fprintf(out, "traced run: %d jobs simulated, %.2f s of program CPU profiled (%.2f s in the benchmark's own code, left out of the shares); spans in %s, profile in %s\n",
		counts.jobs, a.total.Seconds(), a.harness.Seconds(), spanFile, tr.profile)
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-28s %16.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	fmt.Fprintf(out, "  %-28s %16.6g ratio (%d of %d jobs)\n", "fail_frac", s.failFrac(), s.failed, s.attempted)
	s.footer(out)
	return s.result(ms), nil
}

// tracing is what a traced iteration turns on: spans, and a CPU profile
// of the timed phase.
type tracing struct {
	rec     *recorder
	profile string
	f       *os.File
	err     error
}

func (t *tracing) startProfile() {
	if t == nil {
		return
	}
	t.f, t.err = os.Create(t.profile)
	if t.err == nil {
		t.err = pprof.StartCPUProfile(t.f)
	}
}

func (t *tracing) stopProfile() {
	if t == nil || t.f == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := t.f.Close(); err != nil && t.err == nil {
		t.err = err
	}
}

// recordRefs simulates every workload's jobs in-process and stores their
// digests as the default seed's references.
func recordRefs() error {
	r := refs{Seed: 42, Workloads: map[string]workloadRefs{}}
	ctx := context.Background()
	for _, w := range workloads {
		sums, _, err := runner.Run(ctx, runner.Options{Parallel: runtime.GOMAXPROCS(0)}, w.batch.jobs(r.Seed))
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		all := map[string]string{}
		for k, v := range sums {
			all[w.batch.m.name+"/"+k] = digest(v)
		}
		r.Workloads[w.name] = workloadRefs{Ops: w.batch.ops, Digest: setDigest(all), Jobs: all}
		fmt.Fprintf(os.Stderr, "%s: %d jobs, digest %s\n", w.name, len(all), setDigest(all))
	}
	return writeRefs(r)
}
