package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync"
	"testing"
	"time"

	"repro/internal/farm/api"
	"repro/internal/runspec"
)

// relay serves r through h into a recorder, copies the answer to w, and
// returns the answer's body.
func relay(h http.Handler, w http.ResponseWriter, r *http.Request) []byte {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
	return rec.Body.Bytes()
}

// sendOrder wraps the worker client's transport and records, in one
// sequence, when each complete request has been written to its connection
// and when each lease request starts, with the lease that request was
// granted.
type sendOrder struct {
	next    http.RoundTripper
	mu      sync.Mutex
	seq     int
	written map[string]int // lease ID → when its complete request was written
	granted map[string]int // lease ID → when the request granting it started
}

func (o *sendOrder) tick() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seq++
	return o.seq
}

func (o *sendOrder) RoundTrip(r *http.Request) (*http.Response, error) {
	switch r.URL.Path {
	case api.PathComplete:
		var req api.CompleteRequest
		if body, err := r.GetBody(); err == nil {
			_ = json.NewDecoder(body).Decode(&req)
		}
		// This hook runs before the worker's own, which releases its next
		// lease request.
		r = r.WithContext(httptrace.WithClientTrace(r.Context(), &httptrace.ClientTrace{
			WroteRequest: func(httptrace.WroteRequestInfo) {
				at := o.tick()
				o.mu.Lock()
				if o.written[req.Lease] == 0 {
					o.written[req.Lease] = at
				}
				o.mu.Unlock()
			},
		}))
	case api.PathLease:
		at := o.tick()
		resp, err := o.next.RoundTrip(r)
		if err != nil {
			return resp, err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var lr api.LeaseResponse
		if json.Unmarshal(body, &lr) == nil && lr.Job != nil {
			o.mu.Lock()
			o.granted[lr.Job.ID] = at
			o.mu.Unlock()
		}
		return resp, nil
	}
	return o.next.RoundTrip(r)
}

// TestWorkerPipelinesPush: the worker writes job N's complete request
// before it starts the lease request that gets job N+1; through a
// recording handler whose completes answer slowly, no two completes are
// ever in flight at once, and Work returns only after its last complete
// is answered. The order is recorded at the worker's end of the
// connections: the server's runtime can pick up two requests written
// microseconds apart on two connections in either order.
func TestWorkerPipelinesPush(t *testing.T) {
	co, err := NewCoordinator(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const slow = 50 * time.Millisecond // each complete's extra handler time
	var (
		mu                                 sync.Mutex
		grants                             []string // lease IDs in grant order
		arrived, answered, inFlight, maxIn int
	)
	h := Handler(co)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case api.PathLease:
			var lr api.LeaseResponse
			if json.Unmarshal(relay(h, w, r), &lr) == nil && lr.Job != nil {
				mu.Lock()
				grants = append(grants, lr.Job.ID)
				mu.Unlock()
			}
		case api.PathComplete:
			mu.Lock()
			arrived++
			inFlight++
			maxIn = max(maxIn, inFlight)
			mu.Unlock()
			time.Sleep(slow)
			h.ServeHTTP(w, r)
			mu.Lock()
			inFlight--
			answered++
			mu.Unlock()
		default:
			h.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(func() {
		srv.Close()
		co.Close()
	})
	var jobs []runspec.Named
	for i := 1; i <= 5; i++ {
		jobs = append(jobs, protoJob(fmt.Sprintf("k%d", i), int64(i)))
	}
	if _, err := co.Submit(jobs); err != nil {
		t.Fatal(err)
	}

	cl := NewClient(srv.URL)
	order := &sendOrder{next: http.DefaultTransport, written: map[string]int{}, granted: map[string]int{}}
	cl.http = &http.Client{Transport: order}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n, err := Work(ctx, WorkerOptions{
		Client: cl, Name: "pipelined",
		PollWait: 5 * time.Millisecond, IdleExit: 10 * time.Millisecond,
	})
	if err != nil || n != len(jobs) {
		t.Fatalf("Work: %d jobs, %v; want %d", n, err, len(jobs))
	}

	mu.Lock()
	defer mu.Unlock()
	if answered != len(jobs) || arrived != len(jobs) {
		t.Errorf("Work returned with %d of %d completes answered, want %d", answered, arrived, len(jobs))
	}
	if maxIn != 1 {
		t.Errorf("%d completes were in flight at once, want 1", maxIn)
	}
	if len(grants) != len(jobs) {
		t.Fatalf("%d leases granted, want %d", len(grants), len(jobs))
	}
	order.mu.Lock()
	defer order.mu.Unlock()
	for i := 0; i+1 < len(grants); i++ {
		prev, next := grants[i], grants[i+1]
		if w, g := order.written[prev], order.granted[next]; w == 0 || w > g {
			t.Errorf("lease request for %s started (at %d) before %s's complete was written (at %d)", next, g, prev, w)
		}
	}
	if s := co.Snapshot(); s.Done != len(jobs) {
		t.Errorf("coordinator: %+v, want %d done", s, len(jobs))
	}
}
