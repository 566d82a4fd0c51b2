package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// Totals are the sweep-level counts reconstructed from a telemetry
// journal. The fields mirror runner.Stats one-for-one: replaying the
// telemetry.jsonl of a completed sweep yields exactly the Stats the runner
// returned, which is the integrity check that makes the journal a trustable
// post-hoc record of where time went.
type Totals struct {
	Jobs         int `json:"jobs"`
	Simulated    int `json:"simulated"`
	CacheHits    int `json:"cache_hits"`
	Failures     int `json:"failures"`
	Canceled     int `json:"canceled"`
	Panics       int `json:"panics"`
	TimedOut     int `json:"timed_out"`
	Retried      int `json:"retried"`
	CacheCorrupt int `json:"cache_corrupt"`
}

// ReadJournal loads every parsable event from the telemetry journal at
// path, in file order. It is crash-tolerant: a line that fails to parse
// (at worst the torn final line of a crashed writer) is skipped, not
// fatal, so a reader accepts whatever state a crash leaves behind.
func ReadJournal(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var evs []Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024) // panic stacks make long lines
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return evs, fmt.Errorf("sweep: journal %s: %w", path, err)
	}
	return evs, nil
}

// Replay folds journal events into sweep totals.
func Replay(evs []Event) Totals {
	var t Totals
	for _, ev := range evs {
		switch ev.Type {
		case EventSweepStart:
			t.Jobs += ev.Jobs
		case EventPanic:
			t.Panics++
		case EventTimeout:
			t.TimedOut++
		case EventRetry:
			t.Retried++
		case EventCacheCorrupt:
			t.CacheCorrupt++
		case EventDone:
			switch ev.Outcome {
			case OutcomeDone:
				t.Simulated++
			case OutcomeCached:
				t.CacheHits++
			case OutcomeCanceled:
				t.Canceled++
			case OutcomeFailed, OutcomePanic, OutcomeTimeout:
				t.Failures++
			}
		}
	}
	return t
}
