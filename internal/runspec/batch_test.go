package runspec

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func batchJob(key string, seed int64) Named {
	return Named{Key: key, Spec: Spec{
		Scheme: "nonsecure", Benchmark: "lbm", Cores: 1, OpsPerCore: 300, Seed: seed,
	}}
}

// TestBatchRoundTrip: WriteBatch output parses back to the same job list.
func TestBatchRoundTrip(t *testing.T) {
	jobs := []Named{batchJob("a", 1), batchJob("b", 2)}
	var buf bytes.Buffer
	if err := WriteBatch(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBatch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Key != "a" || got[1].Spec.Seed != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	h0, _ := jobs[0].Spec.Hash()
	g0, _ := got[0].Spec.Hash()
	if h0 != g0 {
		t.Fatal("round trip must preserve the content hash")
	}
}

// batchValidationCases are invalid job lists and the error each must
// produce; FuzzReadBatch seeds its corpus with their encodings.
var batchValidationCases = []struct {
	name string
	jobs []Named
	want string
}{
	{"empty", nil, "no jobs"},
	{"missing key", []Named{{Spec: batchJob("x", 1).Spec}}, "job 0 has no key"},
	{"duplicate key", []Named{batchJob("dup", 1), batchJob("dup", 2)}, `duplicate key "dup"`},
	{"invalid spec", []Named{{Key: "bad", Spec: Spec{Benchmark: "lbm"}}}, "job 0 (bad)"},
}

// TestBatchValidation: the errors name the offending job.
func TestBatchValidation(t *testing.T) {
	for _, tc := range batchValidationCases {
		err := ValidateBatch(tc.jobs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v must contain %q", tc.name, err, tc.want)
		}
	}
}

// TestBatchRejectsUnknownFields: a version-skewed file fails loudly instead
// of being half-understood.
func TestBatchRejectsUnknownFields(t *testing.T) {
	in := `{"jobs":[{"key":"a","spec":{"scheme":"nonsecure","benchmark":"lbm","cores":1}}],"futurefield":1}`
	if _, err := ReadBatch(strings.NewReader(in)); err == nil {
		t.Fatal("unknown top-level field must be rejected")
	}
	in = `{"jobs":[{"key":"a","spec":{"scheme":"nonsecure","benchmark":"lbm","cores":1,"no_such_knob":true}}]}`
	if _, err := ReadBatch(strings.NewReader(in)); err == nil {
		t.Fatal("unknown spec field must be rejected")
	}
}

// TestSweepIDFrozen pins the sweep identity of the examples/farm batch:
// runner sweep-journal file names and farm sweep IDs are this value, so it
// must not move. Order must not matter, and the caller's slice is left
// unsorted.
func TestSweepIDFrozen(t *testing.T) {
	hashes := []string{
		"028f7f7ccaf2e9d76a35bfc6186f9253f1cfd5ef185db51758512b793c58c9ce", // itesp/mcf
		"981016716c2a4a272ad9b4c9651785ef5273bf62df9316914dfb7eed20fbb1bb", // synergy/mcf
		"78f407506e887687d6ba67955ffccf2b17500c143026014b41e00da7c3293b5a", // vault/mcf
	}
	const want = "946ddfdf2d3c432b491d6cec88caa71e16fb062eeac8317a3ed4cdd2040b43d1"
	if got := SweepID(hashes); got != want {
		t.Fatalf("sweep ID moved:\n  pinned %s\n  got    %s", want, got)
	}
	if hashes[1] != "981016716c2a4a272ad9b4c9651785ef5273bf62df9316914dfb7eed20fbb1bb" {
		t.Fatal("SweepID must not reorder its argument")
	}
	reversed := []string{hashes[2], hashes[1], hashes[0]}
	if got := SweepID(reversed); got != want {
		t.Fatalf("sweep ID depends on order: %s", got)
	}
	jobs := readExampleBatch(t)
	for i, j := range jobs {
		if h, err := j.Spec.Hash(); err != nil || h != hashes[i] {
			t.Fatalf("examples/farm job %s hashes to %s (%v), want %s", j.Key, h, err, hashes[i])
		}
	}
}

// exampleBatch is the batch file the examples/farm walkthrough submits.
var exampleBatch = filepath.Join("..", "..", "examples", "farm", "specs.json")

func readExampleBatch(t *testing.T) []Named {
	t.Helper()
	f, err := os.Open(exampleBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	jobs, err := ReadBatch(f)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// FuzzReadBatch: every input either fails to decode, or decodes to a batch
// that survives WriteBatch → ReadBatch unchanged, with the same sweep ID.
// The seeds (the examples/farm batch and the validation cases) run under
// plain go test.
func FuzzReadBatch(f *testing.F) {
	example, err := os.ReadFile(exampleBatch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	for _, tc := range batchValidationCases {
		var buf bytes.Buffer
		if err := WriteBatch(&buf, tc.jobs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := ReadBatch(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBatch(&buf, jobs); err != nil {
			t.Fatalf("WriteBatch of a decoded batch: %v", err)
		}
		again, err := ReadBatch(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading WriteBatch output: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, jobs) {
			t.Fatalf("round trip changed the jobs:\n got %+v\nwant %+v", again, jobs)
		}
		if a, b := batchSweepID(t, jobs), batchSweepID(t, again); a != b {
			t.Fatalf("round trip moved the sweep ID: %s -> %s", a, b)
		}
	})
}

func batchSweepID(t *testing.T, jobs []Named) string {
	t.Helper()
	hashes := make([]string, len(jobs))
	for i, j := range jobs {
		h, err := j.Spec.Hash()
		if err != nil {
			t.Fatalf("job %s decoded but does not hash: %v", j.Key, err)
		}
		hashes[i] = h
	}
	return SweepID(hashes)
}
