package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm/api"
	"repro/internal/runner"
	"repro/internal/runspec"
)

// flakyProxy sits between farm clients and the coordinator and injects the
// failures a real deployment sees: plain 5xx before the request reaches the
// coordinator, latency, connection resets, and — the dangerous one —
// requests that reach the coordinator but whose response is lost, so the
// client retries and the coordinator sees a duplicate delivery. Faults fire
// on a deterministic schedule (every strideth request, cycling through the
// kinds) so every path is exercised on every run without seeding flakiness.
type flakyProxy struct {
	backend string
	client  *http.Client
	stride  int

	n      atomic.Int64
	mu     sync.Mutex
	faults map[string]int
}

func newFlakyProxy(backend string, stride int) *flakyProxy {
	return &flakyProxy{backend: backend, client: &http.Client{}, stride: stride, faults: map[string]int{}}
}

func (p *flakyProxy) count(kind string) {
	p.mu.Lock()
	p.faults[kind]++
	p.mu.Unlock()
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	n := p.n.Add(1)
	if n%int64(p.stride) == 0 {
		switch (n / int64(p.stride)) % 4 {
		case 0:
			p.count("503")
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		case 1:
			p.count("delay")
			time.Sleep(15 * time.Millisecond)
		case 2:
			p.count("reset")
			panic(http.ErrAbortHandler) // connection reset mid-request
		case 3:
			// Deliver to the coordinator, lose the response: the client
			// must retry, and the coordinator must absorb the duplicate.
			p.count("lost-response")
			resp, err := p.forward(r, body)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			http.Error(w, "injected response loss", http.StatusBadGateway)
			return
		}
	}
	resp, err := p.forward(r, body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (p *flakyProxy) forward(r *http.Request, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.backend+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	return p.client.Do(req)
}

// TestChaosProxyNoJobLostOrDoubled is the farm's fault-injection acceptance
// test: a real sweep runs through a proxy that resets connections, delays,
// 503s, and loses responses (forcing duplicate deliveries), and still every
// job reaches exactly one terminal state, nothing fails, and the summaries
// are byte-identical to an in-process runner.Run of the same specs.
func TestChaosProxyNoJobLostOrDoubled(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	jobs := append(e2eJobs(),
		runspec.Named{Key: "itesp/lbm", Spec: runspec.Spec{Scheme: "itesp", Benchmark: "lbm", Cores: 1, OpsPerCore: 2000, Seed: 7}},
		runspec.Named{Key: "vault/mcf", Spec: runspec.Spec{Scheme: "vault", Benchmark: "mcf", Cores: 1, OpsPerCore: 2000, Seed: 7}},
		runspec.Named{Key: "nonsecure/mcf", Spec: runspec.Spec{Scheme: "nonsecure", Benchmark: "mcf", Cores: 1, OpsPerCore: 2000, Seed: 7}},
	)
	ctx := context.Background()

	// Ground truth.
	runnerJobs := make([]runner.Job, len(jobs))
	for i, j := range jobs {
		runnerJobs[i] = runner.Job{Key: j.Key, Spec: j.Spec}
	}
	direct, _, err := runner.Run(ctx, runner.Options{Parallel: 2}, runnerJobs)
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator with a short real-time lease TTL so leases orphaned by
	// lost responses lapse and re-queue within the test's lifetime; a
	// generous retry budget absorbs the injected losses.
	corpus := t.TempDir()
	co, err := NewCoordinator(Config{CacheDir: corpus, LeaseTTL: 2 * time.Second, Retries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	expCtx, stopExpiry := context.WithCancel(ctx)
	defer stopExpiry()
	co.StartExpiry(expCtx, 100*time.Millisecond)
	origin := httptest.NewServer(Handler(co))
	defer origin.Close()

	proxy := newFlakyProxy(origin.URL, 3)
	front := httptest.NewServer(proxy)
	defer front.Close()

	// Everything — worker and batch client — talks through the proxy, with
	// an aggressive retry policy so injected faults cost milliseconds.
	copts := ClientOptions{
		Retry: RetryPolicy{Attempts: 8, Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
	}
	workerCtx, stopWorker := context.WithCancel(ctx)
	defer stopWorker()
	workerDone := make(chan struct{})
	var workErr error
	go func() {
		defer close(workerDone)
		_, workErr = Work(workerCtx, WorkerOptions{
			Client:   NewClientOpts(front.URL, copts),
			Name:     "chaos-worker",
			CacheDir: t.TempDir(),
			PollWait: 200 * time.Millisecond,
			Logf:     t.Logf,
		})
	}()

	rctx, rcancel := context.WithTimeout(ctx, 3*time.Minute)
	defer rcancel()
	farmRes, err := NewClientOpts(front.URL, copts).RunSweep(rctx, jobs, nil)
	stopWorker()
	<-workerDone
	if err != nil {
		t.Fatalf("RunSweep through chaos proxy: %v", err)
	}
	if workErr != nil {
		t.Fatalf("worker through chaos proxy: %v", workErr)
	}

	// The proxy really did inject every fault kind.
	proxy.mu.Lock()
	faults := proxy.faults
	proxy.mu.Unlock()
	t.Logf("injected faults: %v over %d requests", faults, proxy.n.Load())
	for _, kind := range []string{"503", "delay", "reset", "lost-response"} {
		if faults[kind] == 0 {
			t.Errorf("fault kind %q never fired — the chaos schedule lost coverage", kind)
		}
	}

	// No job failed, none lost: byte-identical to the in-process run.
	for _, j := range jobs {
		want, _ := json.Marshal(direct[j.Key])
		got, _ := json.Marshal(farmRes[j.Key])
		if !bytes.Equal(want, got) {
			t.Errorf("%s: farm summary differs under chaos:\nfarm:   %s\ndirect: %s", j.Key, got, want)
		}
	}

	// Exactly one terminal journal record per spec hash: no double
	// completion slipped through the duplicate deliveries, no job leaked.
	recs, err := ReadJournal(JournalPath(corpus))
	if err != nil {
		t.Fatal(err)
	}
	terminalByHash := map[string][]string{}
	for _, r := range recs {
		switch r.Kind {
		case "done", "cached", "failed":
			terminalByHash[r.Hash] = append(terminalByHash[r.Hash], r.Kind)
		}
	}
	if len(terminalByHash) != len(jobs) {
		t.Fatalf("terminal records for %d hashes, want %d: %v", len(terminalByHash), len(jobs), terminalByHash)
	}
	for _, j := range jobs {
		h, _ := j.Spec.Hash()
		kinds := terminalByHash[h]
		if len(kinds) != 1 || kinds[0] != "done" {
			t.Errorf("%s: terminal records %v, want exactly one done", j.Key, kinds)
		}
	}

	// And the coordinator's own census agrees: everything done, nothing in
	// flight, nothing failed.
	if s := co.Snapshot(); s.Done != len(jobs) || s.Failed != 0 || s.Queued != 0 || s.Leased != 0 {
		t.Fatalf("post-chaos census: %+v", s)
	}
}

// TestHeartbeatFatalClassification pins which heartbeat errors abort the
// in-flight attempt (lease revoked, credentials rejected) versus ride-out
// transients (coordinator restarting behind a 503, transport noise).
func TestHeartbeatFatalClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"lease_gone", &api.Error{Code: api.CodeLeaseGone, Message: "lapsed"}, true},
		{"unauthorized", &api.Error{Code: api.CodeUnauthorized}, true},
		{"http 401", &api.HTTPStatusError{Status: 401}, true},
		{"internal", &api.Error{Code: api.CodeInternal}, false},
		{"http 503", &api.HTTPStatusError{Status: 503}, false},
		{"transport", io.ErrUnexpectedEOF, false},
	}
	for _, c := range cases {
		if got := heartbeatFatal(c.err); got != c.want {
			t.Errorf("heartbeatFatal(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}
