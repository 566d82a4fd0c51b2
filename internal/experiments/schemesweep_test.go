package experiments

import (
	"testing"

	"repro/internal/core"
)

// TestSweepSchemesCoversRegistry drives every scheme in the table —
// including the post-paper servas/tmebox families — end to end through the
// Fig 8 sweep machinery and checks the structural expectations: every
// secure scheme produces a normalized time, treeless authenticryption
// beats the tree-walking VAULT baseline (it fetches strictly less
// metadata), and the lightly-loaded tmebox sits below the full-integrity
// schemes.
func TestSweepSchemesCoversRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	o := tiny(t)
	r, err := SweepSchemes(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range core.SchemeNames() {
		if name == "nonsecure" {
			continue
		}
		sr := r.Schemes[name]
		if sr == nil {
			t.Fatalf("%s: missing from sweep result", name)
		}
		// Near-zero-overhead schemes (e.g. tmebox256, whose keys fit on
		// chip) can land a hair under 1.0 at reduced scale: their few
		// extra reads perturb row-buffer interleaving. Allow 5% jitter.
		if sr.GeoAll < 0.95 {
			t.Errorf("%s: normalized time %.3f below the non-secure baseline", name, sr.GeoAll)
		}
	}
	if servas, vault := r.Schemes["servas"].GeoAll, r.Schemes["vault"].GeoAll; servas >= vault {
		t.Errorf("treeless servas (%.3f) should outrun tree-walking vault (%.3f)", servas, vault)
	}
	if tme, itesp := r.Schemes["tmebox"].GeoAll, r.Schemes["itesp"].GeoAll; tme >= itesp {
		t.Errorf("encryption-only tmebox (%.3f) should outrun full-integrity itesp (%.3f)", tme, itesp)
	}
}
