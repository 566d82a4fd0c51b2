package core

import (
	"reflect"
	"testing"

	"repro/internal/mem"
)

// TestRegistryConsistent is the scheme table's contract: names are stable
// and unique, every name builds a scheme carrying that name, and every
// scheme describes itself for the doc generators.
func TestRegistryConsistent(t *testing.T) {
	names := SchemeNames()
	want := []string{
		"nonsecure", "mee", "vault", "itvault", "synergy", "itsynergy",
		"itsynergy+pc", "sharedparity", "sharedparity+pc", "itesp", "itesp4p",
		"syn128", "syn128iso", "itesp64", "itesp128",
		"servas", "tmebox", "tmebox256",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("SchemeNames order drifted (rows are appended to the scheme table, never inserted):\n  want %v\n  got  %v", want, names)
	}
	descs := Descriptions()
	if len(descs) != len(names) {
		t.Errorf("%d descriptions for %d schemes: names must be unique", len(descs), len(names))
	}
	for _, name := range names {
		if descs[name] == "" {
			t.Errorf("%s: empty description", name)
		}
		s, err := SchemeByName(name, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("%s: built scheme named %q", name, s.Name)
		}
	}
	if _, err := SchemeByName("nope", 4); err == nil {
		t.Error("unknown scheme must error")
	}
}

func TestRegistryTaggedLists(t *testing.T) {
	wantFig8 := []string{
		"vault", "itvault", "synergy", "itsynergy", "itsynergy+pc",
		"sharedparity", "sharedparity+pc", "itesp",
	}
	if got := NamesTagged("fig8"); !reflect.DeepEqual(got, wantFig8) {
		t.Errorf("fig8 tag list drifted:\n  want %v\n  got  %v", wantFig8, got)
	}
	wantFig11 := []string{"synergy", "syn128", "syn128iso", "itesp64", "itesp128"}
	if got := NamesTagged("fig11"); !reflect.DeepEqual(got, wantFig11) {
		t.Errorf("fig11 tag list drifted:\n  want %v\n  got  %v", wantFig11, got)
	}
	if got := NamesTagged("no-such-tag"); got != nil {
		t.Errorf("unknown tag should list nothing, got %v", got)
	}
}

// TestServasTrafficProfile checks the treeless family's signature: MAC
// traffic only — no counters, no tree nodes, no parity — and detection
// without correction.
func TestServasTrafficProfile(t *testing.T) {
	r := newRig(t, mustScheme(t, "servas", 2), "rbh2", 2)
	if len(r.eng.trees) != 0 {
		t.Fatalf("servas built %d integrity trees", len(r.eng.trees))
	}
	tok := r.access(t, 0, mem.Read, 0)
	r.drain(t, tok, 10_000)
	r.access(t, 0, mem.Write, mem.VirtAddr(mem.PageSize))
	st := &r.eng.Stats
	if got := st.MetaReads[mem.KindMAC].Value(); got == 0 {
		t.Error("cold accesses should fetch MAC blocks")
	}
	for _, kind := range []mem.Kind{mem.KindCounter, mem.KindTree, mem.KindParity} {
		if n := st.MetaReads[kind].Value() + st.MetaWrites[kind].Value(); n != 0 {
			t.Errorf("servas generated %d %v accesses", n, kind)
		}
	}
	if !r.eng.CanDetectFaults() {
		t.Error("authenticryption tags must detect faults")
	}
	if r.eng.CanCorrectFaults() {
		t.Error("servas has no parity to correct with")
	}
}

// TestServasMACLocality: the second access to a block covered by an
// already-cached MAC line must not fetch again.
func TestServasMACLocality(t *testing.T) {
	r := newRig(t, mustScheme(t, "servas", 1), "rbh2", 1)
	tok := r.access(t, 0, mem.Read, 0)
	r.drain(t, tok, 10_000)
	cold := r.eng.Stats.MetaReads[mem.KindMAC].Value()
	tok = r.access(t, 0, mem.Read, 64)
	r.drain(t, tok, 10_000)
	if got := r.eng.Stats.MetaReads[mem.KindMAC].Value(); got != cold {
		t.Errorf("adjacent block re-fetched its MAC line: %d -> %d", cold, got)
	}
}

// TestTmeboxKeyTraffic checks the multi-key family's signature: key-table
// fetches (accounted as KindCounter) on key-cache misses, nothing else,
// and neither detection nor correction.
func TestTmeboxKeyTraffic(t *testing.T) {
	r := newRig(t, mustScheme(t, "tmebox", 1), "rbh2", 1)
	if len(r.eng.trees) != 0 {
		t.Fatalf("tmebox built %d integrity trees", len(r.eng.trees))
	}
	// Touch many distinct pages: domains are assigned per page, so this
	// sprays the key table and must miss the cold key cache.
	for p := 0; p < 64; p++ {
		tok := r.access(t, 0, mem.Read, mem.VirtAddr(p*mem.PageSize))
		r.drain(t, tok, 10_000)
	}
	st := &r.eng.Stats
	keyFetches := st.MetaReads[mem.KindCounter].Value()
	if keyFetches == 0 {
		t.Error("cold key cache should fetch key-table blocks")
	}
	for _, kind := range []mem.Kind{mem.KindMAC, mem.KindTree, mem.KindParity} {
		if n := st.MetaReads[kind].Value() + st.MetaWrites[kind].Value(); n != 0 {
			t.Errorf("tmebox generated %d %v accesses", n, kind)
		}
	}
	if st.MetaWrites[mem.KindCounter].Value() != 0 {
		t.Error("keys are read-only; no key write-backs expected")
	}
	// Re-touching the same pages hits the now-warm key cache.
	before := st.MetaReads[mem.KindCounter].Value()
	for p := 0; p < 64; p++ {
		tok := r.access(t, 0, mem.Read, mem.VirtAddr(p*mem.PageSize))
		r.drain(t, tok, 10_000)
	}
	if got := st.MetaReads[mem.KindCounter].Value(); got != before {
		t.Errorf("warm key cache still fetched: %d -> %d", before, got)
	}
	if r.eng.CanDetectFaults() || r.eng.CanCorrectFaults() {
		t.Error("encryption-only scheme can neither detect nor correct")
	}
}

// TestTmeboxDomainCountScalesPressure: more domains mean a larger key
// table, so the same page spray must produce at least as many key fetches
// under the large configuration as under the small one.
func TestTmeboxDomainCountScalesPressure(t *testing.T) {
	fetches := func(name string) uint64 {
		r := newRig(t, mustScheme(t, name, 1), "rbh2", 1)
		for p := 0; p < 512; p++ {
			tok := r.access(t, 0, mem.Read, mem.VirtAddr(p*mem.PageSize))
			r.drain(t, tok, 10_000)
		}
		return r.eng.Stats.MetaReads[mem.KindCounter].Value()
	}
	small, large := fetches("tmebox256"), fetches("tmebox")
	if small == 0 || large == 0 {
		t.Fatalf("expected key fetches in both configs (small=%d large=%d)", small, large)
	}
	if large < small {
		t.Errorf("4096 domains produced fewer key fetches (%d) than 256 (%d)", large, small)
	}
}

// TestTrafficModelFallback: an overridden scheme whose name is not in the
// scheme table must still resolve to the right model from its fields.
func TestTrafficModelFallback(t *testing.T) {
	servas := mustScheme(t, "servas", 4)
	servas.Name = "servas-ablated"
	if _, ok := trafficFor(servas).(servasTraffic); !ok {
		t.Error("NoTree override did not route to servasTraffic")
	}
	tme := mustScheme(t, "tmebox", 4)
	tme.Name = "tmebox-ablated"
	if _, ok := trafficFor(tme).(tmeboxTraffic); !ok {
		t.Error("KeyDomains override did not route to tmeboxTraffic")
	}
	tree := mustScheme(t, "itesp", 4)
	tree.Name = "itesp-ablated"
	if _, ok := trafficFor(tree).(treeTraffic); !ok {
		t.Error("tree scheme did not route to treeTraffic")
	}
}
