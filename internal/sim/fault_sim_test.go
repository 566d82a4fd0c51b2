package sim

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/workload"
)

// faultTestConfig is a reduced-scale campaign sized so that every phase of
// the pipeline (injection, scrub detection, correction, drain) fits inside
// a 2-core 2500-op run: a 256-block span swept every 20 DRAM cycles.
func faultTestConfig(t *testing.T, scheme string) Config {
	t.Helper()
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		SchemeName: scheme,
		Benchmark:  spec,
		Cores:      2,
		Channels:   1,
		OpsPerCore: 2500,
		Seed:       11,
		Faults: fault.Config{
			N: 8, Kind: "chip", Seed: 17,
			StartCycle: 2000, Interval: 2000,
			SpanBlocks: 256, ScrubInterval: 20,
		},
	}
}

// TestFaultCampaignDeterminism runs the same fault campaign twice and
// requires bit-identical summaries — the seeded-determinism guarantee the
// runspec content hash and the result cache rely on.
func TestFaultCampaignDeterminism(t *testing.T) {
	cfg := faultTestConfig(t, "itesp")
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	as, bs := a.Summarize(), b.Summarize()
	if !reflect.DeepEqual(as, bs) {
		t.Fatalf("identical fault specs diverged\n first: %+v\nsecond: %+v", as, bs)
	}
	aj, err := json.Marshal(as)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(bs)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatal("summary JSON digests differ between identical runs")
	}
	if as.Faults == nil || as.Faults.Injected == 0 {
		t.Fatalf("campaign ran but summary records no faults: %+v", as.Faults)
	}
}

// TestFaultIdleSkipEquivalence runs a faulted config through Run and
// through the reference loop that steps every cycle; the outputs must
// match exactly, proving the fast-forward clamp wakes the simulator at
// every injection and scrub cycle.
func TestFaultIdleSkipEquivalence(t *testing.T) {
	for _, scheme := range []string{"synergy", "itesp"} {
		t.Run(scheme, func(t *testing.T) {
			requireLoopMatchesReference(t, scheme, faultTestConfig(t, scheme), 10_000)
		})
	}
}

// TestNoFaultRunMatchesGolden asserts the regression contract of the fault
// subsystem: a run with an explicit zero fault.Config is bit-identical to
// the pre-change golden summaries, and its summary carries no fault digest.
func TestNoFaultRunMatchesGolden(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	want := map[string]*Summary{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	cfgs := goldenConfigs(t)
	for _, name := range []string{"synergy", "itesp"} {
		cfg := cfgs[name]
		cfg.Faults = fault.Config{} // explicitly disabled
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := res.Summarize()
		if got.Faults != nil {
			t.Errorf("%s: no-fault run produced a fault summary: %+v", name, got.Faults)
		}
		if w, ok := want[name]; ok && !reflect.DeepEqual(got, w) {
			t.Errorf("%s: no-fault run diverged from golden\n got: %+v\nwant: %+v", name, got, w)
		}
	}
}

// TestFaultInvariantAcrossSchemes checks the DUE bookkeeping identity
// (injected == corrected + DUE + SDC + latent) and each scheme family's
// qualitative behavior: per-rank parity (synergy) and shared parity
// (sharedparity, itesp) repair chip faults, MAC-only schemes (vault) turn
// every detection into a DUE, and the non-secure baseline never detects.
func TestFaultInvariantAcrossSchemes(t *testing.T) {
	for _, tc := range []struct {
		scheme  string
		correct bool // scheme has correction parity
		detect  bool // scheme has MACs
	}{
		{"synergy", true, true},
		{"sharedparity", true, true},
		{"itesp", true, true},
		{"vault", false, true},
		{"nonsecure", false, false},
	} {
		res, err := Run(faultTestConfig(t, tc.scheme))
		if err != nil {
			t.Fatalf("%s: %v", tc.scheme, err)
		}
		fs := res.Summarize().Faults
		if fs == nil {
			t.Fatalf("%s: no fault summary", tc.scheme)
		}
		if err := fs.CheckInvariant(); err != nil {
			t.Errorf("%s: %v", tc.scheme, err)
		}
		if fs.Injected == 0 {
			t.Errorf("%s: campaign injected nothing: %+v", tc.scheme, fs)
		}
		switch {
		case !tc.detect:
			if fs.Detected != 0 || fs.Latent != fs.Injected {
				t.Errorf("%s: want all faults latent, got %+v", tc.scheme, fs)
			}
		case !tc.correct:
			if fs.Corrected() != 0 || fs.CorrectionReads != 0 {
				t.Errorf("%s: MAC-only scheme issued corrections: %+v", tc.scheme, fs)
			}
			if fs.DUE != fs.Detected {
				t.Errorf("%s: want every detection to be a DUE, got %+v", tc.scheme, fs)
			}
		default:
			if fs.Corrected() == 0 {
				t.Errorf("%s: correcting scheme repaired nothing: %+v", tc.scheme, fs)
			}
			if fs.CorrectionReads == 0 {
				t.Errorf("%s: corrections without correction reads: %+v", tc.scheme, fs)
			}
		}
	}
}
