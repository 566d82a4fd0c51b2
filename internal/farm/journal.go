package farm

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/runspec"
)

// JournalName is the farm journal's file name inside the corpus directory.
const JournalName = "farm-journal.jsonl"

// JournalRecord is one JSONL line of the farm journal: a job-state
// transition, appended the moment it happens. Like the runner's sweep
// journal, each append is a single whole-line O_APPEND write, so a crash
// can at worst tear the final line and every line before it survives —
// the queue is reconstructible from the journal plus the corpus: a fresh
// coordinator replays the journal on startup and compacts it to the
// minimal record set describing the live state (see replay.go for the
// compaction format).
type JournalRecord struct {
	TMS  int64  `json:"t_ms"`
	Kind string `json:"kind"` // submit|queued|cached|lease|requeue|expire|done|failed|store_error

	Sweep    string `json:"sweep,omitempty"`
	Jobs     int    `json:"jobs,omitempty"`
	Key      string `json:"key,omitempty"`
	Hash     string `json:"hash,omitempty"`
	Lease    string `json:"lease,omitempty"`
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`

	// Keys/Hashes carry a sweep's full job list on submit records (in
	// submission order), so replay can restore the sweeps table without
	// the original request. Spec rides on queued/cached/failed/compacted
	// lease records so a replayed job can be re-leased — the runner cache
	// stores specs inside corpus entries, not addressable by hash alone.
	Keys   []string      `json:"keys,omitempty"`
	Hashes []string      `json:"hashes,omitempty"`
	Spec   *runspec.Spec `json:"spec,omitempty"`
}

// journal is the append-only writer. The coordinator serializes appends
// under its own mutex, but the journal keeps one anyway so it stays safe
// if that ever changes. size tracks the file's byte length so the
// coordinator can trigger threshold compaction without stat-ing per
// append.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64
}

// JournalPath returns the journal file for a corpus directory.
func JournalPath(dir string) string { return filepath.Join(dir, JournalName) }

// openJournal opens (creating dir and file as needed) the append-only farm
// journal under dir.
func openJournal(dir string) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("farm: journal: %w", err)
	}
	path := JournalPath(dir)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("farm: journal: %w", err)
	}
	var size int64
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	return &journal{f: f, path: path, size: size}, nil
}

// append writes one record as a single whole-line write.
func (j *journal) append(rec JournalRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n, err := j.f.Write(append(line, '\n'))
	j.size += int64(n)
	return err
}

// bytes reports the journal file's current length.
func (j *journal) bytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// rewrite atomically replaces the journal's contents with recs: the new
// file is written beside the old one, synced, and renamed into place, so a
// crash mid-compaction leaves either the full old journal or the full new
// one — never a mix, never nothing.
func (j *journal) rewrite(recs []JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	tmp := j.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var size int64
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		n, werr := f.Write(append(line, '\n'))
		if werr != nil {
			f.Close()
			os.Remove(tmp)
			return werr
		}
		size += int64(n)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Future appends must land in the new file, not the renamed-over one.
	old := j.f
	nf, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f = nf
	j.size = size
	return old.Close()
}

// close syncs and closes the journal.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	serr := j.f.Sync()
	cerr := j.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// ReadJournal loads every parsable record from a farm journal. Unparsable
// lines (at worst the torn final line of a crashed writer) are skipped,
// not fatal, matching sweep.ReadJournal.
func ReadJournal(path string) ([]JournalRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []JournalRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var rec JournalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, fmt.Errorf("farm: journal %s: %w", path, err)
	}
	return recs, nil
}
