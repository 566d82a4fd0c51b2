package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/obs"
	"repro/internal/obs/sweep"
	"repro/internal/runner"
	"repro/internal/runspec"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sweepSetups is how many times a sweep iteration performs its set-up.
const sweepSetups = 25

// Job sizes in memory operations per core. They are part of the workload
// definition: the stored references hold only for these values.
const (
	opsIntensive = 1000
	opsFarm      = 150
)

// machine is the simulated system a batch runs on.
type machine struct {
	name            string
	cores, channels int
}

var fig8Machine = machine{"4c1ch", 4, 1}

// batch is one figure-style sweep: Fig 8's nine schemes over benches on
// one machine, the job list experiments.Fig8 builds for the same options.
type batch struct {
	m       machine
	benches []string
	ops     uint64
}

// workloadDef names a workload and the batch it runs.
type workloadDef struct {
	name  string
	batch batch
	// farm runs the batch through an in-process farm instead of
	// runner.Run; the corpus is pre-filled with corpus.
	farm   bool
	corpus batch
}

var workloads = []workloadDef{
	{
		name:  "sweep-intensive",
		batch: batch{fig8Machine, workload.TopMemoryIntensive(), opsIntensive},
	},
	{
		name:   "farm-overlap",
		batch:  batch{fig8Machine, allBenchmarks(), opsFarm},
		farm:   true,
		corpus: batch{fig8Machine, workload.TopMemoryIntensive(), opsFarm},
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func allBenchmarks() []string {
	var names []string
	for _, s := range workload.Specs() {
		names = append(names, s.Name)
	}
	return names
}

// figSeed applies the experiments package's seed rule (0 means 42), so
// the specs built here equal the ones experiments.Fig8 builds.
func figSeed(seed int64) int64 {
	if seed == 0 {
		return 42
	}
	return seed
}

// jobs returns the batch's job list in the order and with the keys
// experiments.Fig8 uses: per benchmark, nonsecure then the fig8 schemes.
func (b batch) jobs(seed int64) []runner.Job {
	schemes := append([]string{"nonsecure"}, experiments.Fig8Schemes...)
	var out []runner.Job
	for _, bench := range b.benches {
		for _, s := range schemes {
			out = append(out, runner.Job{Key: s + "/" + bench, Spec: runspec.Spec{
				Scheme: s, Benchmark: bench, Cores: b.m.cores, Channels: b.m.channels,
				OpsPerCore: b.ops, Seed: figSeed(seed),
			}})
		}
	}
	return out
}

// keys returns the result keys of every job the workload runs.
func (w workloadDef) keys(seed int64) []string {
	var out []string
	for _, j := range w.batch.jobs(seed) {
		out = append(out, w.batch.m.name+"/"+j.Key)
	}
	return out
}

// size is the number of jobs one iteration of the workload attempts.
func (w workloadDef) size() int {
	return len(w.batch.benches) * (1 + len(experiments.Fig8Schemes))
}

// iteration is one set-up plus one timed phase of a workload.
type iteration struct {
	setups []time.Duration
	wall   time.Duration
	// sums holds every summary the timed phase returned, keyed
	// "<machine>/<scheme>/<benchmark>".
	sums map[string]*sim.Summary
	// serviceMS holds one per-job service time per dispatched job.
	serviceMS []float64
	// Per-layer inputs, filled by traced iterations and the farm.
	spans    []span
	runStats runner.Stats
	counts   simCounts
	journal  int64 // bytes of the runner or farm journals after the sweep
	farm     farm.Stats
	// timed is the span of the timed phase, relative to the recorder.
	timedStart, timedEnd time.Duration
	// corpusSums are the farm corpus jobs' summaries from set-up's
	// in-process run.
	corpusSums map[string]*sim.Summary
	// failed counts the jobs without a correct result.
	failed int
}

// runSweep runs one iteration of an in-process sweep workload the way
// `experiments -fig 8 -bench … -cache-dir … -progress -parallel 1` does:
// Fig 8's job list handed to runner.Run with a fresh result cache, a sweep
// telemetry collector and a progress callback, which is all that
// experiments.Fig8 forwards to the runner. Traced, the span and count
// hooks are added to the same call.
func runSweep(ctx context.Context, w workloadDef, seed int64, tmp string, tr *tracing) (*iteration, error) {
	it := &iteration{sums: map[string]*sim.Summary{}}
	rec := newRecorder()
	if tr != nil {
		rec = tr.rec
	}

	// The set-up is repeated and each repetition timed: it takes well
	// under a millisecond, so a single sample is mostly scheduler and
	// file-system jitter. The last repetition's job list, cache and
	// collector are the ones the timed phase runs with.
	var (
		jobs  []runner.Job
		dir   string
		cache *runner.Cache
		col   *sweep.Collector
		err   error
	)
	for rep := 0; rep < sweepSetups; rep++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		t0 := time.Now()
		jobs = w.batch.jobs(seed)
		if dir, err = os.MkdirTemp(tmp, "cache-"); err != nil {
			return nil, err
		}
		cache = runner.NewCache(dir)
		col = sweep.New()
		it.setups = append(it.setups, time.Since(t0))
	}
	defer os.RemoveAll(dir)
	var stats runner.Stats

	last := time.Now()
	opts := runner.Options{
		Parallel: 1, Cache: cache, Stats: &stats, Telemetry: col,
		OnJobDone: func(int, int, runner.Job, bool, error) {
			// The -progress callback's work: one collector snapshot per job.
			_ = col.Snapshot()
			now := time.Now()
			it.serviceMS = append(it.serviceMS, ms(now.Sub(last)))
			last = now
		},
	}
	tr.startProfile()
	it.timedStart = rec.now()
	t1 := time.Now()
	last = t1
	sums, err := runJobs(ctx, tr, jobs, opts, &it.counts)
	it.wall = time.Since(t1)
	it.timedEnd = rec.now()
	tr.stopProfile()
	for k, s := range sums {
		it.sums[w.batch.m.name+"/"+k] = s
	}
	it.spans = rec.spansIn(it.timedStart, it.timedEnd)
	it.runStats = stats
	it.journal = journalBytes(dir, "sweep-*.manifest", "sweep-*.telemetry.jsonl")
	return it, err
}

// runJobs is runner.Run on a job list. When tr is set it also records a
// span for the call and one per simulation, from the Observer hook to
// AfterSim, and totals the simulated counts read from each *sim.Result.
func runJobs(ctx context.Context, tr *tracing, jobs []runner.Job, o runner.Options, counts *simCounts) (map[string]*sim.Summary, error) {
	if tr == nil {
		sums, _, err := runner.Run(ctx, o, jobs)
		return sums, err
	}
	rec := tr.rec
	runID := rec.id()
	start := rec.now()
	var mu sync.Mutex
	type open struct {
		id    int
		start time.Duration
	}
	inflight := map[string]open{}
	o.Observer = func(j runner.Job) *obs.Observer {
		mu.Lock()
		inflight[j.Key] = open{rec.id(), rec.now()}
		mu.Unlock()
		return nil
	}
	o.AfterSim = func(j runner.Job, _ *obs.Observer, res *sim.Result) error {
		end := rec.now()
		mu.Lock()
		op := inflight[j.Key]
		delete(inflight, j.Key)
		counts.add(res)
		mu.Unlock()
		rec.add(span{id: op.id, parent: runID, lane: "sim", name: "sim", job: j.Key, start: op.start, end: end})
		return nil
	}
	sums, _, err := runner.Run(ctx, o, jobs)
	rec.add(span{id: runID, parent: rec.root, lane: "runner", name: "runner.Run", start: start, end: rec.now()})
	return sums, err
}

// simCounts totals what the simulations did, read from *sim.Result.
type simCounts struct {
	jobs                       int
	cycles, dataOps            uint64
	accesses, activates        uint64
	rowHits, rowMisses         uint64
	readLatSum                 float64
	readLatN                   uint64
	metaAccesses               uint64
	metaCacheHits, metaCacheMs uint64
}

func (c *simCounts) add(r *sim.Result) {
	c.jobs++
	c.cycles += r.Cycles
	c.dataOps += r.Engine.Stats.DataOps()
	for ch := 0; ch < r.Memory.Config().Geom.Channels; ch++ {
		s := r.Memory.ChannelStats(ch)
		c.accesses += s.Reads.Value() + s.Writes.Value()
		c.activates += s.Activates.Value()
		c.rowHits += s.RowHits.Value()
		c.rowMisses += s.RowMisses.Value()
		c.readLatSum += s.ReadLat.Sum()
		c.readLatN += s.ReadLat.Count()
	}
	st := &r.Engine.Stats
	for k := range st.MetaReads {
		c.metaAccesses += st.MetaReads[k].Value() + st.MetaWrites[k].Value()
	}
	if mc := r.Engine.MetaCache(); mc != nil {
		c.metaCacheHits += mc.Stats.Hits.Value()
		c.metaCacheMs += mc.Stats.Misses.Value()
	}
}

// journalBytes sums the sizes of the files in dir matching any pattern.
func journalBytes(dir string, patterns ...string) int64 {
	var n int64
	for _, p := range patterns {
		matches, _ := filepath.Glob(filepath.Join(dir, p))
		for _, m := range matches {
			if fi, err := os.Stat(m); err == nil {
				n += fi.Size()
			}
		}
	}
	return n
}

// runFarm runs one iteration of farm-overlap: set-up fills a fresh corpus
// with the corpus batch in-process ("I ran Fig 8 on the top 15") and
// starts a coordinator, its HTTP surface on loopback and one pull worker,
// wired as simfarmd and simfarm-worker wire them; the timed phase is one
// Client.RunSweep of the full job set.
func runFarm(ctx context.Context, w workloadDef, seed int64, tmp string, tr *tracing) (*iteration, error) {
	it := &iteration{sums: map[string]*sim.Summary{}}
	rec := newRecorder()
	if tr != nil {
		rec = tr.rec
	}
	b := w.batch

	t0 := time.Now()
	jobs := b.jobs(seed)
	named := make([]runspec.Named, len(jobs))
	for i, j := range jobs {
		named[i] = runspec.Named{Key: j.Key, Spec: j.Spec}
	}
	corpus, err := os.MkdirTemp(tmp, "corpus-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(corpus)
	it.corpusSums, _, err = runner.Run(ctx, runner.Options{Parallel: 1, Cache: runner.NewCache(corpus)}, w.corpus.jobs(seed))
	if err != nil {
		return nil, fmt.Errorf("filling the corpus: %w", err)
	}
	co, err := farm.NewCoordinator(farm.Config{
		CacheDir: corpus, LeaseTTL: 30 * time.Second, Retries: 1, Collector: sweep.New(),
	})
	if err != nil {
		return nil, err
	}
	fctx, stop := context.WithCancel(ctx)
	co.StartExpiry(fctx, 0)
	fh := &farmHTTP{rec: rec, registered: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stop()
		co.Close()
		return nil, err
	}
	srv := &http.Server{Handler: fh.wrap(farm.Handler(co)), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	worked := make(chan error, 1)
	go func() {
		_, err := farm.Work(fctx, farm.WorkerOptions{Client: farm.NewClient(addr), Name: "bench-worker", PollWait: 10 * time.Second})
		worked <- err
	}()
	client := farm.NewClient(addr)
	select {
	case <-fh.registered:
	case <-time.After(30 * time.Second):
		err = errors.New("worker did not register within 30s")
	}
	it.setups = []time.Duration{time.Since(t0)}

	if err == nil {
		var sweepID int
		if tr != nil {
			sweepID = rec.id()
		}
		fh.setParent(sweepID)
		tr.startProfile()
		it.timedStart = rec.now()
		t1 := time.Now()
		var sums map[string]*sim.Summary
		sums, err = client.RunSweep(ctx, named, nil)
		it.wall = time.Since(t1)
		it.timedEnd = rec.now()
		tr.stopProfile()
		if tr != nil {
			rec.add(span{id: sweepID, parent: rec.root, lane: "client", name: "Client.RunSweep", start: it.timedStart, end: it.timedEnd})
		}
		for k, s := range sums {
			it.sums[b.m.name+"/"+k] = s
		}
		it.journal = journalBytes(corpus, farm.JournalName)
		it.farm = co.Snapshot()
	}

	// Tear down as simfarmd drains: unpark long-polls, stop the worker,
	// let in-flight HTTP finish, then close the journal.
	stop()
	co.Shutdown()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srv.Shutdown(sctx)
	cancel()
	<-served
	werr := <-worked
	cerr := co.Close()
	if err != nil {
		return it, err
	}
	if werr != nil {
		return it, fmt.Errorf("worker: %w", werr)
	}
	if cerr != nil {
		return it, fmt.Errorf("coordinator close: %w", cerr)
	}
	for _, s := range fh.rec.spansIn(it.timedStart, it.timedEnd) {
		if strings.HasPrefix(s.lane, "http ") {
			it.spans = append(it.spans, s)
		}
	}
	it.serviceMS = leaseServiceMS(it.spans)
	return it, nil
}

// leaseServiceMS pairs each granted lease with its complete request and
// returns the service times, from the grant being served until the
// complete request is served, in completion order.
func leaseServiceMS(spans []span) []float64 {
	granted := map[string]time.Duration{}
	var out []float64
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i].end < sorted[k].end })
	for _, s := range sorted {
		switch {
		case s.name == "lease" && s.lease != "":
			granted[s.lease] = s.end
		case s.name == "complete" && s.lease != "":
			if g, ok := granted[s.lease]; ok {
				out = append(out, ms(s.end-g))
				delete(granted, s.lease)
			}
		}
	}
	return out
}

// inProcess runs jobs through runner.Run on one worker with count hooks;
// it is the reference the farm's summaries must equal byte for byte.
func inProcess(ctx context.Context, jobs []runner.Job, counts *simCounts) (map[string]*sim.Summary, error) {
	var mu sync.Mutex
	sums, _, err := runner.Run(ctx, runner.Options{
		Parallel: 1,
		AfterSim: func(_ runner.Job, _ *obs.Observer, res *sim.Result) error {
			mu.Lock()
			counts.add(res)
			mu.Unlock()
			return nil
		},
	}, jobs)
	return sums, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
