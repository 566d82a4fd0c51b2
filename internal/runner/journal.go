package runner

import (
	"errors"
	"os"
	"path/filepath"

	"repro/internal/obs/sweep"
	"repro/internal/runspec"
)

// SweepHash names a job set by runspec.SweepID over its spec hashes, so
// the same sweep resumed (or re-sharded, or submitted to a farm) maps to
// the same journal file. Jobs whose specs cannot hash contribute a fixed
// placeholder — they fail at run time with a spec error anyway.
func SweepHash(jobs []Job) string {
	hashes := make([]string, len(jobs))
	for i, j := range jobs {
		h, err := j.Spec.Hash()
		if err != nil {
			h = "unhashable"
		}
		hashes[i] = h
	}
	return runspec.SweepID(hashes)
}

// TelemetryPath returns the sweep journal for a job set under dir: the
// append-only JSONL file of job-lifecycle events that Run writes whenever
// a cache is configured (see sweep.ReadJournal and sweep.Replay).
func TelemetryPath(dir string, jobs []Job) string {
	return filepath.Join(dir, "sweep-"+SweepHash(jobs)+".telemetry.jsonl")
}

// openJournal opens (creating dir as needed) the sweep journal for this
// job set. Re-running a sweep appends a fresh sweep_start and its events
// to the same file, preserving history. Events are single whole-line
// writes, so a crash can at worst tear the final line, which the journal
// reader skips.
func openJournal(dir string, jobs []Job) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return os.OpenFile(TelemetryPath(dir, jobs), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// outcomeState classifies a terminal outcome into the journal's
// sweep.Outcome* vocabulary.
func outcomeState(out outcome) string {
	var pe *PanicError
	switch {
	case out.err == nil && out.cached:
		return sweep.OutcomeCached
	case out.err == nil:
		return sweep.OutcomeDone
	case canceledOutcome(out.err):
		return sweep.OutcomeCanceled
	case errors.Is(out.err, ErrJobTimeout):
		return sweep.OutcomeTimeout
	case errors.As(out.err, &pe):
		return sweep.OutcomePanic
	default:
		return sweep.OutcomeFailed
	}
}
