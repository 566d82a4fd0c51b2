package runspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Named pairs a display key with a spec: one job of a batch. Key is the
// caller-facing name (e.g. "itesp/mcf") used in result maps and progress
// output; the content hash of Spec, not Key, addresses the run everywhere
// results are stored.
type Named struct {
	Key  string `json:"key"`
	Spec Spec   `json:"spec"`
}

// batchFile is the on-disk batch encoding: a single object with a "jobs"
// list, so the format can grow sweep-level fields later without breaking
// old files.
type batchFile struct {
	Jobs []Named `json:"jobs"`
}

// ReadBatch decodes a batch of named specs from r (the format WriteBatch
// produces) and validates it: at least one job, non-empty unique keys, and
// every spec resolvable (Validate). It is the parse step for everything
// that accepts a job list from outside the process — the farm submission
// API and the simfarm client both speak this format.
func ReadBatch(r io.Reader) ([]Named, error) {
	var f batchFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("runspec: batch: %w", err)
	}
	if err := ValidateBatch(f.Jobs); err != nil {
		return nil, err
	}
	return f.Jobs, nil
}

// WriteBatch encodes jobs in the ReadBatch format.
func WriteBatch(w io.Writer, jobs []Named) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(batchFile{Jobs: jobs}); err != nil {
		return fmt.Errorf("runspec: batch: %w", err)
	}
	return nil
}

// SweepID names a job set by content: the hex SHA-256 over its jobs' spec
// hashes, sorted, one per line. It takes hashes the caller already
// computed, so a caller that needs them anyway hashes each spec once.
// Order-independent: the same jobs in any order name the same sweep. The
// runner's sweep journals and the farm's sweep IDs are both this value.
func SweepID(hashes []string) string {
	sorted := slices.Clone(hashes)
	slices.Sort(sorted)
	sum := sha256.New()
	for _, h := range sorted {
		sum.Write([]byte(h))
		sum.Write([]byte{'\n'})
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// ValidateBatch checks a job list as a unit: non-empty, every key present
// and unique, every spec valid. Errors name the offending job by index and
// key so a rejected submission is diagnosable from the message alone.
func ValidateBatch(jobs []Named) error {
	if len(jobs) == 0 {
		return fmt.Errorf("runspec: batch: no jobs")
	}
	seen := make(map[string]int, len(jobs))
	for i, j := range jobs {
		if j.Key == "" {
			return fmt.Errorf("runspec: batch: job %d has no key", i)
		}
		if prev, dup := seen[j.Key]; dup {
			return fmt.Errorf("runspec: batch: duplicate key %q (jobs %d and %d)", j.Key, prev, i)
		}
		seen[j.Key] = i
		if err := j.Spec.Validate(); err != nil {
			return fmt.Errorf("runspec: batch: job %d (%s): %w", i, j.Key, err)
		}
	}
	return nil
}
