package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/sim"
)

// digest is the hex SHA-256 of a summary's JSON encoding, the bytes the
// result cache and the farm store.
func digest(s *sim.Summary) string {
	b, err := json.Marshal(s)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func digests(sums map[string]*sim.Summary) map[string]string {
	out := make(map[string]string, len(sums))
	for k, s := range sums {
		out[k] = digest(s)
	}
	return out
}

// setDigest folds per-job digests into one, so two commits compare with
// a single line.
func setDigest(ds map[string]string) string {
	keys := make([]string, 0, len(ds))
	for k := range ds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s\n", k, ds[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// failures returns the jobs whose summary is missing from got or differs
// from any of the references (nil references are skipped), and names up
// to three of them.
func failures(refs []map[string]string, got map[string]string) (bad map[string]bool, examples []string) {
	bad = map[string]bool{}
	for _, ref := range refs {
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			g, ok := got[k]
			if ok && g == ref[k] || bad[k] {
				continue
			}
			bad[k] = true
			if len(examples) < 3 {
				what := " differs"
				if !ok {
					what = " missing"
				}
				examples = append(examples, k+what)
			}
		}
	}
	return bad, examples
}

// refs are the per-job summary digests recorded for the default seed.
// Ops pins the job size, in operations per core, they were recorded at.
type refs struct {
	Seed      int64                   `json:"seed"`
	Workloads map[string]workloadRefs `json:"workloads"`
}

type workloadRefs struct {
	Ops    uint64            `json:"ops"`
	Digest string            `json:"digest"`
	Jobs   map[string]string `json:"jobs"`
}

//go:embed refs_seed42.json
var refsJSON []byte

const refsFile = "benchmark/refs_seed42.json"

func loadRefs() (refs, error) {
	var r refs
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return r, fmt.Errorf("%s: %w", refsFile, err)
	}
	return r, nil
}

// expected returns the stored reference digests for w, or nil when the
// seed has none. References recorded at other job sizes are an error.
func (r refs) expected(w workloadDef, seed int64) (map[string]string, error) {
	if seed != r.Seed {
		return nil, nil
	}
	wr, ok := r.Workloads[w.name]
	if !ok {
		return nil, fmt.Errorf("%s has no references for %s; regenerate with -write-refs", refsFile, w.name)
	}
	if wr.Ops != w.batch.ops {
		return nil, fmt.Errorf("%s: %s references are for %d ops per core, the workload runs %d; regenerate with -write-refs", refsFile, w.name, wr.Ops, w.batch.ops)
	}
	return wr.Jobs, nil
}

func writeRefs(r refs) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(refsFile, append(b, '\n'), 0o644)
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs, and whether at
// least minTail samples lie strictly beyond it, the condition for
// reporting it.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	v := s[i]
	beyond := len(s) - sort.Search(len(s), func(k int) bool { return s[k] > v })
	return v, beyond >= minTail
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
