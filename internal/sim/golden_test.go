package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// The shared -update flag (obs_test.go) also re-pins the golden summaries.

// goldenConfigs are the reduced-scale runs whose summaries are pinned in
// testdata. They cover the four scheme families the hot loop specializes
// for (VAULT, Synergy/Morphable, ITESP, isolation), the two post-paper
// backend families with structurally different traffic (SERVAS treeless
// MACs, TME-Box key domains), plus a DDR4 run (3:1 CPU:DRAM clock ratio),
// an LLC-filtered run and the 8-core, 2-channel machine of Figs 11/12, so
// any change to the tick path, token routing, or idle fast-forward that
// shifts simulated time by even one cycle fails the comparison.
func goldenConfigs(t *testing.T) map[string]Config {
	t.Helper()
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Benchmark:  spec,
		Cores:      2,
		Channels:   1,
		OpsPerCore: 2500,
		Seed:       11,
	}
	cfgs := map[string]Config{}
	for _, s := range []string{"vault", "synergy", "itesp", "syn128iso", "servas", "tmebox"} {
		c := base
		c.SchemeName = s
		cfgs[s] = c
	}
	ddr4 := base
	ddr4.SchemeName = "itesp"
	ddr4.DDR4 = true
	cfgs["itesp+ddr4"] = ddr4
	llc := base
	llc.SchemeName = "vault"
	llc.FilterLLC = true
	llc.LLCMBPerCore = 1
	cfgs["vault+llc"] = llc
	wide := base
	wide.SchemeName = "itesp"
	wide.Cores = 8
	wide.Channels = 2
	cfgs["itesp+8c2ch"] = wide
	return cfgs
}

const goldenPath = "testdata/golden_summaries.json"

// TestGoldenCycleEquivalence asserts that every golden config still produces
// the exact Summary (cycles, per-core cycles, traffic, energy) recorded from
// the straight-line pre-optimization simulator. Run with -update to re-pin.
func TestGoldenCycleEquivalence(t *testing.T) {
	cfgs := goldenConfigs(t)
	got := map[string]*Summary{}
	for name, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = res.Summarize()
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	want := map[string]*Summary{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name := range cfgs {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry (run with -update)", name)
			continue
		}
		g := got[name]
		if g.Cycles != w.Cycles {
			t.Errorf("%s: Cycles = %d, golden %d", name, g.Cycles, w.Cycles)
		}
		if !reflect.DeepEqual(g.PerCoreCycles, w.PerCoreCycles) {
			t.Errorf("%s: PerCoreCycles = %v, golden %v", name, g.PerCoreCycles, w.PerCoreCycles)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: summary diverged from golden\n got: %+v\nwant: %+v", name, g, w)
		}
	}
}

// TestIdleSkipEquivalence runs every golden config through Run, with its
// lazy cores and idle fast-forward, and through the reference loop that
// steps every cycle, and requires identical outputs. Together with the
// pinned goldens this proves the optimized loop reproduces the
// pre-optimization simulator cycle for cycle.
func TestIdleSkipEquivalence(t *testing.T) {
	for name, cfg := range goldenConfigs(t) {
		t.Run(name, func(t *testing.T) {
			requireLoopMatchesReference(t, name, cfg, 10_000)
		})
	}
}

const coreCountersPath = "testdata/golden_core_counters.json"

// coreCounters are one core's -metrics counters that the summary goldens do
// not pin.
type coreCounters struct {
	StallCycles uint64 `json:"cpu_stall_cycles_total"`
	Retired     uint64 `json:"cpu_retired_instructions"`
}

// TestGoldenCoreCounters pins every core's stall and retirement counters, as
// the metrics registry reports them, for every golden config. Run with
// -update to re-pin.
func TestGoldenCoreCounters(t *testing.T) {
	cfgs := goldenConfigs(t)
	got := map[string][]coreCounters{}
	for name, cfg := range cfgs {
		ob := obs.New(obs.Config{Metrics: true})
		cfg.Obs = ob
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		counters := make([]coreCounters, cfg.Cores)
		for _, s := range ob.Registry.Snapshot().Samples {
			if s.Name != "cpu_stall_cycles_total" && s.Name != "cpu_retired_instructions" {
				continue
			}
			i, err := strconv.Atoi(s.Labels["core"])
			if err != nil || i < 0 || i >= cfg.Cores {
				t.Fatalf("%s: %s has core label %q", name, s.Name, s.Labels["core"])
			}
			if s.Name == "cpu_stall_cycles_total" {
				counters[i].StallCycles = uint64(s.Value)
			} else {
				counters[i].Retired = uint64(s.Value)
			}
		}
		got[name] = counters
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(coreCountersPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", coreCountersPath)
		return
	}

	data, err := os.ReadFile(coreCountersPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	want := map[string][]coreCounters{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name := range cfgs {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry (run with -update)", name)
			continue
		}
		if !reflect.DeepEqual(got[name], w) {
			t.Errorf("%s: core counters = %+v, golden %+v", name, got[name], w)
		}
	}
}
