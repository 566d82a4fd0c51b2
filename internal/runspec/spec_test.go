package runspec

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

func fullSpec() Spec {
	return Spec{
		Scheme:        "itesp",
		Benchmark:     "mcf",
		Cores:         4,
		Channels:      2,
		Policy:        "rbh4",
		OpsPerCore:    5000,
		WarmupOps:     100,
		Seed:          7,
		DataFrac:      0.5,
		MetaKBPerCore: 32,
		DenseAlloc:    true,
		DDR4:          true,
		FilterLLC:     true,
		LLCMBPerCore:  4,
		StrictVerify:  true,
		ROBSize:       128,
		RetireWidth:   8,
	}
}

func mustHash(t *testing.T, s Spec) string {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestJSONRoundTrip(t *testing.T) {
	for _, s := range []Spec{
		fullSpec(),
		{Scheme: "vault", Benchmark: "pr", Cores: 1},
		func() Spec {
			scheme, err := core.SchemeByName("sharedparity+pc", 4)
			if err != nil {
				t.Fatal(err)
			}
			scheme.ParityShare = 8
			return Spec{SchemeOverride: &scheme, Benchmark: "lbm", Cores: 4, OpsPerCore: 100}
		}(),
	} {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("round trip changed the spec:\n  in  %+v\n  out %+v", s, back)
		}
	}
}

func TestHashStableAcrossFieldReordering(t *testing.T) {
	a := `{"scheme":"itesp","benchmark":"mcf","cores":4,"seed":7,"ops_per_core":5000}`
	b := `{"ops_per_core":5000,"seed":7,"cores":4,"benchmark":"mcf","scheme":"itesp"}`
	var sa, sb Spec
	if err := json.Unmarshal([]byte(a), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &sb); err != nil {
		t.Fatal(err)
	}
	if ha, hb := mustHash(t, sa), mustHash(t, sb); ha != hb {
		t.Errorf("field order changed the hash: %s vs %s", ha, hb)
	}
	direct := Spec{Scheme: "itesp", Benchmark: "mcf", Cores: 4, Seed: 7, OpsPerCore: 5000}
	if hd := mustHash(t, direct); hd != mustHash(t, sa) {
		t.Error("struct-built and JSON-built specs hash differently")
	}
}

func TestHashChangesOnEveryKnob(t *testing.T) {
	base := fullSpec()
	mutations := map[string]func(*Spec){
		"scheme":    func(s *Spec) { s.Scheme = "synergy" },
		"benchmark": func(s *Spec) { s.Benchmark = "lbm" },
		"cores":     func(s *Spec) { s.Cores = 8 },
		"channels":  func(s *Spec) { s.Channels = 1 },
		"policy":    func(s *Spec) { s.Policy = "column" },
		"ops":       func(s *Spec) { s.OpsPerCore = 6000 },
		"warmup":    func(s *Spec) { s.WarmupOps = 200 },
		"seed":      func(s *Spec) { s.Seed = 8 },
		"datafrac":  func(s *Spec) { s.DataFrac = 0.6 },
		"metakb":    func(s *Spec) { s.MetaKBPerCore = 64 },
		"dense":     func(s *Spec) { s.DenseAlloc = false },
		"ddr4":      func(s *Spec) { s.DDR4 = false },
		"llc":       func(s *Spec) { s.FilterLLC = false },
		"llcmb":     func(s *Spec) { s.LLCMBPerCore = 8 },
		"strict":    func(s *Spec) { s.StrictVerify = false },
		"rob":       func(s *Spec) { s.ROBSize = 256 },
		"width":     func(s *Spec) { s.RetireWidth = 2 },
		"schemeovr": func(s *Spec) { sch, _ := core.SchemeByName("vault", 4); s.SchemeOverride = &sch },
		"ovr-knob": func(s *Spec) {
			sch, _ := core.SchemeByName("vault", 4)
			sch.MetaCacheKB *= 2
			s.SchemeOverride = &sch
		},
	}
	seen := map[string]string{mustHash(t, base): "base"}
	for name, mutate := range mutations {
		s := base
		mutate(&s)
		h := mustHash(t, s)
		if prev, dup := seen[h]; dup {
			t.Errorf("%s: hash collides with %s", name, prev)
		}
		seen[h] = name
	}
}

func TestNormalizationEquivalence(t *testing.T) {
	base := Spec{Scheme: "itesp", Benchmark: "mcf", Cores: 4}
	for name, tweak := range map[string]func(*Spec){
		"channels-default": func(s *Spec) { s.Channels = 1 },
		"ops-default":      func(s *Spec) { s.OpsPerCore = 100_000 },
		"datafrac-default": func(s *Spec) { s.DataFrac = 0.75 },
		"metakb-default":   func(s *Spec) { s.MetaKBPerCore = 16 },
		"llcmb-ignored":    func(s *Spec) { s.LLCMBPerCore = 4 }, // FilterLLC off
		"cpu-default":      func(s *Spec) { s.ROBSize = 64; s.RetireWidth = 4 },
	} {
		s := base
		tweak(&s)
		if mustHash(t, s) != mustHash(t, base) {
			t.Errorf("%s: explicitly-set default should hash like the zero value", name)
		}
	}
	// A scheme override makes the scheme name irrelevant.
	sch, err := core.SchemeByName("vault", 4)
	if err != nil {
		t.Fatal(err)
	}
	a := Spec{Scheme: "itesp", Benchmark: "mcf", Cores: 4, SchemeOverride: &sch}
	b := Spec{Scheme: "synergy", Benchmark: "mcf", Cores: 4, SchemeOverride: &sch}
	if mustHash(t, a) != mustHash(t, b) {
		t.Error("scheme name should not affect the hash when an override is set")
	}
}

// TestDefaultPolicyFolds checks that naming a scheme's default mapping
// policy names the same run as leaving it empty, for every registered
// scheme by name and as an override, and that any other policy does not.
func TestDefaultPolicyFolds(t *testing.T) {
	for _, c := range []struct{ scheme, policy string }{
		{"synergy", "column"},
		{"itesp", "rbh2"},
		{"itesp4p", "rbh4"},
	} {
		s := Spec{Scheme: c.scheme, Benchmark: "mcf", Cores: 4}
		explicit := s
		explicit.Policy = c.policy
		if mustHash(t, explicit) != mustHash(t, s) {
			t.Errorf("%s+%s should hash like %s", c.scheme, c.policy, c.scheme)
		}
	}
	for _, name := range core.SchemeNames() {
		scheme, err := core.SchemeByName(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		def := sim.DefaultPolicy(scheme)
		for _, s := range []Spec{
			{Scheme: name, Benchmark: "mcf", Cores: 4},
			{SchemeOverride: &scheme, Benchmark: "mcf", Cores: 4},
		} {
			base := mustHash(t, s)
			for _, pol := range []string{"column", "rank", "rbh2", "rbh4"} {
				p := s
				p.Policy = pol
				if same := mustHash(t, p) == base; same != (pol == def) {
					t.Errorf("%s (override %v) with policy %s: same hash as unset = %v, default is %s",
						name, s.SchemeOverride != nil, pol, same, def)
				}
			}
		}
	}
}

func TestSimConfigRoundTrip(t *testing.T) {
	s := fullSpec()
	cfg, err := s.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Benchmark.Name != "mcf" || cfg.SchemeName != "itesp" || cfg.CPU.ROBSize != 128 {
		t.Fatalf("config not populated: %+v", cfg)
	}
	back, err := FromSimConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("sim.Config round trip changed the spec:\n  in  %+v\n  out %+v", s, back)
	}
	if mustHash(t, back) != mustHash(t, s) {
		t.Error("round trip changed the hash")
	}
}

func TestFromSimConfigRejectsNonAddressable(t *testing.T) {
	if _, err := FromSimConfig(sim.Config{Sources: make([]trace.Source, 1)}); err == nil {
		t.Error("explicit sources must be rejected")
	}
	if _, err := FromSimConfig(sim.Config{SchemeName: "itesp", Cores: 4}); err == nil {
		t.Error("missing benchmark must be rejected")
	}
}

func TestValidate(t *testing.T) {
	for name, s := range map[string]Spec{
		"missing benchmark": {Scheme: "itesp", Cores: 4},
		"unknown benchmark": {Scheme: "itesp", Benchmark: "nope", Cores: 4},
		"zero cores":        {Scheme: "itesp", Benchmark: "mcf"},
		"missing scheme":    {Benchmark: "mcf", Cores: 4},
		"unknown scheme":    {Scheme: "nope", Benchmark: "mcf", Cores: 4},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", name)
		}
		if _, err := s.SimConfig(); err == nil {
			t.Errorf("%s: SimConfig should fail", name)
		}
	}
	good := Spec{Scheme: "itesp", Benchmark: "mcf", Cores: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}
