package main

import (
	"sort"
	"time"
)

// layerMetrics derives the per-layer metrics of a traced iteration from
// its spans, its counts and the CPU profile's attribution. Metrics of a
// layer the workload does not run read 0.
func layerMetrics(w workloadDef, it *iteration, c simCounts, a attribution) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	var busy time.Duration
	if w.farm {
		busy = farmMetrics(set, it, w.size())
		runnerMetrics(set, &iteration{})
	} else {
		busy = runnerMetrics(set, it)
		farmMetrics(set, &iteration{}, 0)
	}

	cpuNs := float64(a.total.Nanoseconds())
	ops, cycles := float64(c.dataOps), float64(c.cycles)
	set("sim.busy_s", busy.Seconds(), "s")
	set("sim.host_us_per_op", per(float64(busy.Microseconds()), ops), "us")
	set("sim.host_ns_per_cycle", per(float64(busy.Nanoseconds()), cycles), "ns")
	set("sim.cycles", cycles, "cycles")
	set("sim.data_ops", ops, "count")

	set("dram.host_ns_per_access", per(a.share("dram")*cpuNs, float64(c.accesses)), "ns")
	set("dram.accesses", float64(c.accesses), "count")
	set("dram.activates", float64(c.activates), "count")
	set("dram.row_hit_rate", per(float64(c.rowHits), float64(c.rowHits+c.rowMisses)), "ratio")
	set("dram.read_latency_cycles", per(c.readLatSum, float64(c.readLatN)), "cycles")

	set("cpu.host_ns_per_cycle", per(a.share("cpu")*cpuNs, cycles), "ns")
	coreShare := 0.0
	for _, l := range []string{"core", "integrity", "cache", "addrmap", "enclave"} {
		coreShare += a.share(l)
	}
	set("core.host_ns_per_op", per(coreShare*cpuNs, ops), "ns")
	set("core.meta_per_op", per(float64(c.metaAccesses), ops), "ratio")
	set("core.meta_cache_hit_rate", per(float64(c.metaCacheHits), float64(c.metaCacheHits+c.metaCacheMs)), "ratio")
	set("workload.host_ns_per_op", per(a.share("workload")*cpuNs, ops), "ns")

	for _, l := range layers {
		set("host_share."+l, a.share(l), "ratio")
	}
	return m
}

// runnerMetrics sets the runner's metrics of an in-process sweep and
// returns the simulations' busy time: the sum of the sim spans.
func runnerMetrics(set func(string, float64, string), it *iteration) time.Duration {
	var runs, sims []span
	for _, s := range it.spans {
		switch s.name {
		case "runner.Run":
			runs = append(runs, s)
		case "sim":
			sims = append(sims, s)
		}
	}
	var busy, self time.Duration
	for _, s := range sims {
		busy += s.dur()
	}
	for _, r := range runs {
		self += r.dur() - covered(r, sims)
	}
	jobs := float64(it.runStats.Jobs)
	if jobs == 0 {
		jobs = 1
	}
	set("runner.self_ms_per_job", ms(self)/jobs, "ms")
	set("runner.journal_bytes", float64(it.journal), "bytes")
	set("runner.simulated", float64(it.runStats.Simulated), "count")
	set("runner.cache_hits", float64(it.runStats.CacheHits), "count")
	set("runner.failed", float64(it.runStats.Failures), "count")
	set("runner.retries", float64(it.runStats.Retried), "count")
	return busy
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, children []span) time.Duration {
	var iv [][2]time.Duration
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, k int) bool { return iv[i][0] < iv[k][0] })
	var total, end time.Duration
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// farmMetrics sets the farm's metrics from the request spans of the
// timed phase and returns the worker's busy time: for each leased job,
// from its lease grant being served to its complete request arriving,
// since farm.Work exposes no simulation hook.
func farmMetrics(set func(string, float64, string), it *iteration, jobs int) time.Duration {
	by := map[string][]span{}
	errs, requests := 0, 0
	granted := map[string]time.Duration{}
	var lastComplete, leaseWait, busy time.Duration
	for _, s := range it.spans {
		requests++
		by[s.name] = append(by[s.name], s)
		if s.status < 200 || s.status > 299 {
			errs++
		}
		switch s.name {
		case "lease":
			leaseWait += min(s.end, it.timedEnd) - max(s.start, it.timedStart)
			if s.lease != "" {
				granted[s.lease] = s.end
			}
		case "complete":
			lastComplete = max(lastComplete, s.end)
		}
	}
	for _, s := range by["complete"] {
		if g, ok := granted[s.lease]; ok {
			busy += s.start - g
		}
	}
	med := func(route string) float64 {
		var d []float64
		for _, s := range by[route] {
			d = append(d, ms(s.dur()))
		}
		return median(d)
	}
	perJob := 0.0
	lag := 0.0
	if jobs > 0 {
		perJob = float64(requests) / float64(jobs)
		lag = ms(it.timedEnd - lastComplete)
	}
	set("farm.submit_ms", med("submit"), "ms")
	set("farm.status_fetches", float64(len(by["status"])), "count")
	set("farm.status_ms_p50", med("status"), "ms")
	set("farm.lease_ms_p50", med("lease"), "ms")
	set("farm.complete_ms_p50", med("complete"), "ms")
	set("farm.result_ms_p50", med("result"), "ms")
	set("farm.lease_wait_s", leaseWait.Seconds(), "s")
	set("farm.completion_lag_ms", lag, "ms")
	set("farm.requests_per_job", perJob, "ratio")
	set("farm.error_responses", float64(errs), "count")
	set("farm.cached_jobs", float64(it.farm.Cached), "count")
	set("farm.leased_jobs", float64(it.farm.Done+it.farm.Failed), "count")
	set("farm.journal_bytes", float64(it.journal), "bytes")
	return busy
}
