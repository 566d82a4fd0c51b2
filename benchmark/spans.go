package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/farm/api"
	"repro/internal/obs"
)

// span is one timed call into a layer, recorded from outside the program.
// Spans of one job share job (its key, or its spec hash in the farm).
type span struct {
	id, parent int
	lane, name string
	job        string
	lease      string // farm lease ID, pairing a grant with its completion
	status     int    // HTTP status for request spans
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory; they are written out when the
// benchmark ends. Times are offsets from the recorder's origin. Span id 1
// is the root: the whole workload.
type recorder struct {
	origin time.Time
	root   int
	mu     sync.Mutex
	next   int
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), root: 1, next: 1} }

func (r *recorder) now() time.Duration { return time.Since(r.origin) }

func (r *recorder) id() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// spansIn returns the spans that overlap [from, to].
func (r *recorder) spansIn(from, to time.Duration) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.end >= from && s.start <= to {
			out = append(out, s)
		}
	}
	return out
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes spans as Chrome trace-event JSON through the
// simulator's own obs.Tracer writer: one lane per span lane, timestamps in
// microseconds of wall time, and each span's id and parent as arguments.
// A job's key or hash is appended to the span name.
func writeSpans(path, title string, spans []span) error {
	sort.SliceStable(spans, func(i, k int) bool { return spans[i].start < spans[k].start })
	t := obs.NewTracer(len(spans) + 64)
	t.Process(1, title)
	lanes := map[string]obs.TrackID{}
	for _, s := range spans {
		tr, ok := lanes[s.lane]
		if !ok {
			tr = t.NewTrack(1, s.lane)
			lanes[s.lane] = tr
		}
		name := s.name
		if s.job != "" {
			name += " " + s.job
		}
		t.Emit(obs.Event{
			TS: uint64(s.start / time.Microsecond), Dur: uint64(s.dur() / time.Microsecond),
			Track: tr, Ph: 'X', Name: name,
			K1: "span", V1: int64(s.id), K2: "parent", V2: int64(s.parent),
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// farmHTTP wraps farm.Handler(co) and records one span per request: its
// route, service time and status, plus the lease a lease response grants
// or a complete request settles.
type farmHTTP struct {
	rec        *recorder
	parent     atomic.Int64
	registered chan struct{}
	regOnce    sync.Once
}

func (f *farmHTTP) setParent(id int) { f.parent.Store(int64(id)) }

func (f *farmHTTP) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeName(r.Method, r.URL.Path)
		s := span{id: f.rec.id(), parent: int(f.parent.Load()), lane: "http " + route, name: route, start: f.rec.now()}
		var body *headReader
		if route == "complete" {
			body = &headReader{ReadCloser: r.Body, head: make([]byte, 0, completeHead)}
			r.Body = body
		}
		rw := &respWriter{ResponseWriter: w, status: http.StatusOK, capture: route == "lease"}
		next.ServeHTTP(rw, r)
		s.end = f.rec.now()
		s.status = rw.status
		switch route {
		case "lease":
			var lr api.LeaseResponse
			if json.Unmarshal(rw.body.Bytes(), &lr) == nil && lr.Job != nil {
				s.lease, s.job = lr.Job.ID, lr.Job.Hash
			}
		case "complete":
			s.lease = leadingLease(body.head)
		case "register":
			f.regOnce.Do(func() { close(f.registered) })
		}
		f.rec.add(s)
	})
}

// completeHead is how many bytes of a complete request the wrapper keeps:
// enough for its leading "lease" member, not the summary that follows.
const completeHead = 256

// headReader passes a request body through and keeps its first
// cap(head) bytes.
type headReader struct {
	io.ReadCloser
	head []byte
}

func (h *headReader) Read(p []byte) (int, error) {
	n, err := h.ReadCloser.Read(p)
	if room := cap(h.head) - len(h.head); room > 0 {
		h.head = append(h.head, p[:min(n, room)]...)
	}
	return n, err
}

// leadingLease returns the value of the "lease" member when it opens the
// JSON object at the start of head, as it does in an encoded
// api.CompleteRequest; the rest of head may be cut off.
func leadingLease(head []byte) string {
	d := json.NewDecoder(bytes.NewReader(head))
	var toks [3]json.Token
	for i := range toks {
		t, err := d.Token()
		if err != nil {
			return ""
		}
		toks[i] = t
	}
	if toks[0] != json.Delim('{') || toks[1] != "lease" {
		return ""
	}
	id, _ := toks[2].(string)
	return id
}

// routeName classifies a request by the farm's api routes.
func routeName(method, path string) string {
	switch {
	case method == http.MethodPost && path == api.PathSubmit:
		return "submit"
	case method == http.MethodGet && strings.HasPrefix(path, api.PathSweep):
		return "status"
	case method == http.MethodGet && strings.HasPrefix(path, api.PathResult):
		return "result"
	case path == api.PathLease:
		return "lease"
	case path == api.PathHeartbeat:
		return "heartbeat"
	case path == api.PathComplete:
		return "complete"
	case path == api.PathWorkers:
		return "register"
	case path == "/events":
		return "events"
	case path == "/progress":
		return "progress"
	}
	return "other"
}

// respWriter records the status code and, when capture is set, the body.
// It forwards Flush so the /events stream keeps working through the
// wrapper.
type respWriter struct {
	http.ResponseWriter
	status  int
	capture bool
	body    bytes.Buffer
}

func (w *respWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.capture {
		w.body.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

func (w *respWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *respWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
