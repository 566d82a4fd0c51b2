package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/farm/api"
	"repro/internal/runspec"
	"repro/internal/sim"
)

// fuzzRoutes are the POST routes FuzzHandlerRequests sends bodies to,
// indexed by the fuzzer's route byte.
var fuzzRoutes = []string{api.PathSubmit, api.PathLease, api.PathHeartbeat, api.PathComplete, api.PathWorkers}

// knownCodes are the error codes the protocol defines.
var knownCodes = map[string]bool{
	api.CodeBadRequest: true, api.CodeNotFound: true, api.CodeNotReady: true,
	api.CodeLeaseGone: true, api.CodeInternal: true, api.CodeUnauthorized: true,
}

// FuzzHandlerRequests sends fuzzed bodies to the farm's POST routes on one
// Handler, so state builds up across inputs. A body's "LEASE" is replaced
// by the ID of the last lease granted, so heartbeats and completions can
// reach a live lease. No input may panic; every non-2xx answer must be the
// typed error envelope with a known code; and after each input the job
// census must account for every job.
func FuzzHandlerRequests(f *testing.F) {
	co, err := NewCoordinator(Config{CacheDir: f.TempDir(), LeaseTTL: time.Minute, Retries: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { co.Close() })
	h := Handler(co)

	seed := func(route int, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(route), body)
	}
	seed(0, api.SubmitRequest{Jobs: []runspec.Named{protoJob("a", 1), protoJob("b", 2)}})
	seed(1, api.LeaseRequest{Worker: "w1"})
	seed(1, api.LeaseRequest{Worker: "w", WaitMS: 10_000})
	seed(2, api.HeartbeatRequest{Lease: "LEASE"})
	seed(3, api.CompleteRequest{Lease: "LEASE", Outcome: api.OutcomeOK, Summary: &sim.Summary{Scheme: "nonsecure", Cycles: 12345}})
	seed(3, api.CompleteRequest{Lease: "LEASE", Outcome: api.OutcomeOK})
	seed(3, api.CompleteRequest{Lease: "LEASE", Outcome: api.OutcomePanic, Error: "injected panic"})
	seed(3, api.CompleteRequest{Lease: "LEASE", Outcome: api.OutcomeTimeout, Error: "injected timeout"})
	seed(3, api.CompleteRequest{Lease: "LEASE", Outcome: api.OutcomeFailed, Error: "bad spec semantics"})
	seed(4, api.RegisterRequest{Name: "w1", Version: "test", MaxMemMB: 512})
	f.Add(uint8(0), []byte(`{"jobs":[]}`))
	f.Add(uint8(0), []byte(`{"jobs":[{"key":"x","spec":{"scheme":"no-such-scheme","benchmark":"lbm","cores":1}}]}`))
	f.Add(uint8(4), []byte(`{"name":""}`))
	f.Add(uint8(2), []byte(`{"lease":"l1-deadbeef","extra":1}`))
	f.Add(uint8(3), []byte(`not json`))

	var lease string // the last lease granted
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		if lease != "" {
			body = bytes.ReplaceAll(body, []byte("LEASE"), []byte(lease))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		if rec.Code/100 == 2 {
			var resp api.LeaseResponse
			if path == api.PathLease && json.Unmarshal(rec.Body.Bytes(), &resp) == nil && resp.Job != nil {
				lease = resp.Job.ID
			}
		} else {
			var env api.ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || !knownCodes[env.Err.Code] {
				t.Fatalf("POST %s %q: HTTP %d with body %q, want a typed error envelope", path, body, rec.Code, rec.Body.Bytes())
			}
		}
		s := co.Snapshot()
		if s.Queued+s.Leased+s.Done+s.Cached+s.Failed != s.Jobs {
			t.Fatalf("POST %s %q: census %+v does not account for every job", path, body, s)
		}
	})
}
