package runspec

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestSpecHashesFrozen pins canonical content hashes captured before the
// backend-registry refactor. These are cache keys: a change here silently
// orphans every existing .runcache entry and breaks sweep resumption, so
// any diff is a bug unless a deliberate, documented cache-format migration
// is happening. New schemes and new omitempty Scheme fields must not move
// these.
func TestSpecHashesFrozen(t *testing.T) {
	override := func() *core.Scheme {
		scheme, err := core.SchemeByName("sharedparity+pc", 4)
		if err != nil {
			t.Fatal(err)
		}
		scheme.ParityShare = 8
		return &scheme
	}
	cases := []struct {
		name string
		spec Spec
		hash string
	}{
		{
			name: "plain-itesp",
			spec: Spec{Scheme: "itesp", Benchmark: "mcf", Cores: 4},
			hash: "f5c980752cdb344f09d29782be653526d17d79389e61b04e4abcceec71922682",
		},
		{
			name: "fig8-vault",
			spec: Spec{Scheme: "vault", Benchmark: "mcf", Cores: 4, Channels: 1, OpsPerCore: 50_000, Seed: 42},
			hash: "faaf391cd9a54dc303d26db4b4667edfd9b481acd2536b82fd51e3d0332b8a9e",
		},
		{
			name: "full",
			spec: fullSpec(),
			hash: "622479f3496043d8f4615720b5105ff2de03180d750edc7496844208a5b6f175",
		},
		{
			name: "override",
			spec: Spec{SchemeOverride: override(), Benchmark: "lbm", Cores: 4, OpsPerCore: 100},
			hash: "fdbbfd4d3590f54f6d966633d7471eee90e6ac29549198dbb1a397c411f3c2df",
		},
	}
	for _, tc := range cases {
		if h := mustHash(t, tc.spec); h != tc.hash {
			t.Errorf("%s: canonical hash moved:\n  pinned %s\n  got    %s", tc.name, tc.hash, h)
		}
	}
}

// TestRegistrySchemesRoundTrip drives every scheme in the table through the
// runspec layer: the spec validates, hashes deterministically, resolves to
// a sim.Config, and survives the FromSimConfig round trip — both by name
// and as an explicit SchemeOverride.
func TestRegistrySchemesRoundTrip(t *testing.T) {
	hashes := map[string]string{}
	for _, name := range core.SchemeNames() {
		spec := Spec{Scheme: name, Benchmark: "mcf", Cores: 4}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := mustHash(t, spec)
		if h != mustHash(t, spec) {
			t.Errorf("%s: hash is not deterministic", name)
		}
		if prev, dup := hashes[h]; dup {
			t.Errorf("%s: hash collides with %s", name, prev)
		}
		hashes[h] = name

		cfg, err := spec.SimConfig()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := FromSimConfig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mustHash(t, back) != h {
			t.Errorf("%s: sim.Config round trip changed the hash", name)
		}

		scheme, err := core.SchemeByName(name, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ovr := Spec{SchemeOverride: &scheme, Benchmark: "mcf", Cores: 4}
		oh := mustHash(t, ovr)
		ocfg, err := ovr.SimConfig()
		if err != nil {
			t.Fatalf("%s override: %v", name, err)
		}
		oback, err := FromSimConfig(ocfg)
		if err != nil {
			t.Fatalf("%s override: %v", name, err)
		}
		if !reflect.DeepEqual(oback, ovr) {
			t.Errorf("%s: override round trip changed the spec", name)
		}
		if mustHash(t, oback) != oh {
			t.Errorf("%s: override round trip changed the hash", name)
		}
	}
}

// TestNewFamilyFieldsHashDistinctly guards the new family knobs: an
// overridden KeyDomains must produce a different run hash (it changes the
// simulated key table), while the zero value must stay out of the
// canonical encoding entirely (hash equal to a hand-built legacy scheme).
func TestNewFamilyFieldsHashDistinctly(t *testing.T) {
	base, err := core.SchemeByName("tmebox", 4)
	if err != nil {
		t.Fatal(err)
	}
	small := base
	small.KeyDomains = 64
	a := Spec{SchemeOverride: &base, Benchmark: "mcf", Cores: 4}
	b := Spec{SchemeOverride: &small, Benchmark: "mcf", Cores: 4}
	if mustHash(t, a) == mustHash(t, b) {
		t.Error("KeyDomains change did not move the hash")
	}

	vault, err := core.SchemeByName("vault", 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Spec{SchemeOverride: &vault, Benchmark: "mcf", Cores: 4}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"NoTree", "NoMAC", "KeyDomains"} {
		if strings.Contains(string(c), field) {
			t.Errorf("zero-valued %s leaked into the canonical encoding: %s", field, c)
		}
	}
}
