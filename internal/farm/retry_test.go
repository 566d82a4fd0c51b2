package farm

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm/api"
	"repro/internal/runspec"
)

// fastRetry keeps retry tests quick: the policy shape is what's under test,
// not the wall-clock pacing.
var fastRetry = RetryPolicy{Attempts: 5, Base: time.Millisecond, Cap: 5 * time.Millisecond}

// TestClientRetriesTransient: a coordinator that answers 503 twice (a
// restart in progress) is ridden out — the call succeeds on the third try.
func TestClientRetriesTransient(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "restarting", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(api.SubmitResponse{Sweep: "s", Jobs: 1, Pending: 1})
	}))
	defer srv.Close()

	cl := NewClientOpts(srv.URL, ClientOptions{Retry: fastRetry})
	sub, err := cl.Submit(context.Background(), []runspec.Named{protoJob("a", 1)})
	if err != nil {
		t.Fatalf("submit through transient 503s: %v", err)
	}
	if sub.Sweep != "s" || hits.Load() != 3 {
		t.Fatalf("want success on hit 3, got %+v after %d hits", sub, hits.Load())
	}
}

// TestClientFatalNoRetry: a typed protocol rejection returns immediately —
// retrying a bad_request can only produce more bad_requests.
func TestClientFatalNoRetry(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(api.ErrorEnvelope{Err: api.Error{Code: api.CodeBadRequest, Message: "nope"}})
	}))
	defer srv.Close()

	cl := NewClientOpts(srv.URL, ClientOptions{Retry: fastRetry})
	_, err := cl.Submit(context.Background(), []runspec.Named{protoJob("a", 1)})
	if errCode(t, err) != api.CodeBadRequest {
		t.Fatalf("want bad_request, got %v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("fatal error must not retry: %d hits", hits.Load())
	}
}

// TestClientRetryExhausts: a persistently dead coordinator fails after
// exactly the attempt budget, surfacing the final status error.
func TestClientRetryExhausts(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer srv.Close()

	cl := NewClientOpts(srv.URL, ClientOptions{Retry: fastRetry})
	_, err := cl.Submit(context.Background(), []runspec.Named{protoJob("a", 1)})
	var se *api.HTTPStatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadGateway {
		t.Fatalf("want HTTP 502 after exhaustion, got %v", err)
	}
	if got := hits.Load(); got != int32(fastRetry.Attempts) {
		t.Fatalf("want exactly %d attempts, got %d", fastRetry.Attempts, got)
	}
}

// TestClientBackoffHonorsContext: a context that fires mid-backoff cuts the
// retry loop short and reports both the cancellation and the last error.
func TestClientBackoffHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	// A long base forces the loop to park in backoff when the context fires.
	cl := NewClientOpts(srv.URL, ClientOptions{Retry: RetryPolicy{Attempts: 8, Base: 30 * time.Second, Cap: 30 * time.Second}})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.Submit(ctx, []runspec.Named{protoJob("a", 1)})
	if time.Since(start) > 5*time.Second {
		t.Fatal("context cancellation must cut the backoff short")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want the context error in the chain, got %v", err)
	}
	var se *api.HTTPStatusError
	if !errors.As(err, &se) {
		t.Fatalf("want the last transient error joined in, got %v", err)
	}
}

// TestChaosShutdownDrainsParkedLease: Shutdown must unpark a long-polling
// lease immediately (empty grant, no error) and answer later long-polls
// without parking — the property simfarmd's SIGTERM drain depends on to
// finish inside its HTTP shutdown window.
func TestChaosShutdownDrainsParkedLease(t *testing.T) {
	co, cl := testFarm(t, Config{})
	ctx := context.Background()

	type got struct {
		lease *api.Lease
		err   error
	}
	ch := make(chan got, 1)
	go func() {
		l, err := cl.Lease(ctx, "parked", 25*time.Second)
		ch <- got{l, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the poller park
	co.Shutdown()

	select {
	case g := <-ch:
		if g.err != nil || g.lease != nil {
			t.Fatalf("drained long-poll must answer empty: %+v %v", g.lease, g.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown must unpark the lease well before its window")
	}

	// Post-shutdown: new long-polls answer empty immediately, even with
	// work queued — nothing may be granted into a dying lifetime.
	if _, err := cl.Submit(ctx, []runspec.Named{protoJob("a", 1)}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	l, err := cl.Lease(ctx, "late", 25*time.Second)
	if err != nil || l != nil {
		t.Fatalf("post-shutdown lease: %+v %v", l, err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("post-shutdown long-poll must not park")
	}
}

// TestChaosShutdownDrainsParkedSweep is the sweep-status twin of
// TestChaosShutdownDrainsParkedLease: Shutdown unparks a status long-poll
// at once (its status, no rows, no error), and later long-polls answer
// without parking.
func TestChaosShutdownDrainsParkedSweep(t *testing.T) {
	co, cl := testFarm(t, Config{})
	a := submitOne(t, cl, "a", 1)
	ch := longPoll(context.Background(), cl, a.Sweep, a.Cursor, 25*time.Second)
	time.Sleep(50 * time.Millisecond) // let the poll park
	co.Shutdown()
	got := answered(t, ch, 5*time.Second)
	if got.err != nil || len(got.st.Jobs) != 0 || got.st.Queued != 1 {
		t.Fatalf("drained long-poll must answer its status without rows: %+v %v", got.st, got.err)
	}

	start := time.Now()
	st, err := cl.sweepSince(context.Background(), a.Sweep, got.st.Cursor, 25*time.Second)
	if err != nil || len(st.Jobs) != 0 {
		t.Fatalf("post-shutdown poll: %+v %v", st, err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("post-shutdown long-poll must not park")
	}
}
