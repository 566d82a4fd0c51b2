package farm

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/farm/api"
	"repro/internal/obs"
	"repro/internal/obs/sweep"
)

// maxPollWait caps the window of both long-polls, a lease request and a
// sweep-status request, so a forgotten client cannot pin a handler
// goroutine indefinitely. RunSweep asks for the whole cap.
const maxPollWait = 30 * time.Second

// pollWait converts a requested long-poll window in milliseconds to a
// duration clamped to [0, maxPollWait].
func pollWait(ms int64) time.Duration {
	return time.Duration(min(max(ms, 0), maxPollWait.Milliseconds())) * time.Millisecond
}

// Handler builds the coordinator's full HTTP surface from the api.Routes
// table: the /v1 job-farm protocol plus the re-exported status endpoints
// (/progress, /metrics, /events, /debug/pprof/), aggregated across every
// worker via the coordinator's collector. The route table is the single
// source of truth — a route added there without a handler here panics at
// startup rather than 404-ing at runtime. When Config.Token is set, the
// whole surface (status endpoints included) requires the bearer token.
func Handler(c *Coordinator) http.Handler {
	reg := obs.NewRegistry()
	c.cfg.Collector.Register(reg)
	registerFarmGauges(reg, c)
	status := sweep.Handler(sweep.ServerConfig{
		Collector: c.cfg.Collector,
		Metrics:   func() *obs.Snapshot { return reg.Snapshot() },
	})

	mux := http.NewServeMux()
	for _, rt := range api.Routes() {
		switch rt.Path {
		case api.PathSubmit:
			mux.HandleFunc(rt.Method+" "+rt.Path, c.handleSubmit)
		case api.PathSweep:
			mux.HandleFunc(rt.Method+" "+rt.Path+"{sweep}", c.handleSweep)
		case api.PathResult:
			mux.HandleFunc(rt.Method+" "+rt.Path+"{hash}", c.handleResult)
		case api.PathLease:
			mux.HandleFunc(rt.Method+" "+rt.Path, c.handleLease)
		case api.PathHeartbeat:
			mux.HandleFunc(rt.Method+" "+rt.Path, c.handleHeartbeat)
		case api.PathComplete:
			mux.HandleFunc(rt.Method+" "+rt.Path, c.handleComplete)
		case api.PathWorkers:
			mux.HandleFunc(rt.Method+" "+rt.Path, c.handleWorkers)
		case "/progress":
			// The farm owns /progress: the collector snapshot plus the job
			// census and registered-worker liveness in one report.
			mux.HandleFunc(rt.Method+" "+rt.Path, c.handleProgress)
		case "/metrics", "/events":
			mux.Handle(rt.Method+" "+rt.Path, status)
		case "/debug/pprof/":
			mux.Handle(rt.Path, status)
		default:
			panic(fmt.Sprintf("farm: route %s %s has no handler", rt.Method, rt.Path))
		}
	}
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "simfarmd — sweep farm coordinator\n\n")
		for _, rt := range api.Routes() {
			fmt.Fprintf(w, "%-4s %-22s %s\n", rt.Method, rt.Path, rt.Doc)
		}
	})
	return withAuth(c.cfg.Token, mux)
}

// withAuth enforces the shared bearer token across the whole surface.
// Tokens are compared as SHA-256 digests with crypto/subtle so the check
// is constant-time and independent of the attacker-controlled length. An
// empty configured token disables the check (plaintext dev farms).
func withAuth(token string, next http.Handler) http.Handler {
	if token == "" {
		return next
	}
	want := sha256.Sum256([]byte(token))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
		sum := sha256.Sum256([]byte(got))
		if subtle.ConstantTimeCompare(want[:], sum[:]) != 1 {
			writeErr(w, &api.Error{Code: api.CodeUnauthorized, Message: "missing or invalid bearer token"})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// ProgressReport is the coordinator's /progress body: the aggregated
// sweep-lifecycle snapshot, the farm job census, and the registered
// workers with liveness.
type ProgressReport struct {
	Sweep   sweep.Progress     `json:"sweep"`
	Farm    Stats              `json:"farm"`
	Workers []api.WorkerStatus `json:"workers"`
}

// handleProgress writes the report indented, as the in-process status
// server writes its /progress, for people reading it with curl.
func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(ProgressReport{
		Sweep:   c.cfg.Collector.Snapshot(),
		Farm:    c.Snapshot(),
		Workers: c.Workers(),
	})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterRequest
	if !readBody(w, r, &req) {
		return
	}
	resp, err := c.RegisterWorker(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, resp)
}

// registerFarmGauges exposes the coordinator's job census as farm_* gauges
// beside the collector's sweep_* gauges.
func registerFarmGauges(reg *obs.Registry, c *Coordinator) {
	g := func(name string, f func(Stats) int) {
		reg.Gauge("farm_"+name, nil, func() float64 { return float64(f(c.Snapshot())) })
	}
	g("jobs", func(s Stats) int { return s.Jobs })
	g("queued", func(s Stats) int { return s.Queued })
	g("leased", func(s Stats) int { return s.Leased })
	g("done", func(s Stats) int { return s.Done })
	g("cached", func(s Stats) int { return s.Cached })
	g("failed", func(s Stats) int { return s.Failed })
	g("sweeps", func(s Stats) int { return s.Sweeps })
	g("workers", func(s Stats) int { return s.Workers })
}

// writeJSON writes v as the 200 response body of a /v1 request, compact:
// programs read these answers, and a status answer carries summaries.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps a coordinator error onto the typed envelope. Non-protocol
// errors become CodeInternal.
func writeErr(w http.ResponseWriter, err error) {
	var ae *api.Error
	if !errors.As(err, &ae) {
		ae = &api.Error{Code: api.CodeInternal, Message: err.Error()}
	}
	status := http.StatusInternalServerError
	switch ae.Code {
	case api.CodeBadRequest:
		status = http.StatusBadRequest
	case api.CodeNotFound:
		status = http.StatusNotFound
	case api.CodeNotReady:
		status = http.StatusConflict
	case api.CodeLeaseGone:
		status = http.StatusGone
	case api.CodeUnauthorized:
		status = http.StatusUnauthorized
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(api.ErrorEnvelope{Err: *ae})
}

// readBody decodes a JSON request body into v, rejecting unknown fields so
// a version-skewed client fails loudly instead of being half-understood.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, &api.Error{Code: api.CodeBadRequest, Message: fmt.Sprintf("request body: %v", err)})
		return false
	}
	return true
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.SubmitRequest
	if !readBody(w, r, &req) {
		return
	}
	resp, err := c.Submit(req.Jobs)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, resp)
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	q, err := c.parseSweepQuery(query.Get(api.QuerySince), query.Get(api.QueryWait))
	if err != nil {
		writeErr(w, err)
		return
	}
	st, err := c.Sweep(r.Context(), r.PathValue("sweep"), q)
	switch {
	case r.Context().Err() != nil:
		// The client went away mid-poll; nothing useful to write.
	case err != nil:
		writeErr(w, err)
	default:
		writeJSON(w, st)
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := c.Result(r.PathValue("hash"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, res)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req api.LeaseRequest
	if !readBody(w, r, &req) {
		return
	}
	lease, err := c.Lease(r.Context(), req.Worker, pollWait(req.WaitMS))
	if err != nil {
		// The client went away mid-poll; nothing useful to write.
		return
	}
	writeJSON(w, api.LeaseResponse{Job: lease})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req api.HeartbeatRequest
	if !readBody(w, r, &req) {
		return
	}
	ttl, err := c.Heartbeat(req.Lease)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, api.HeartbeatResponse{TTLMS: ttl.Milliseconds()})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req api.CompleteRequest
	if !readBody(w, r, &req) {
		return
	}
	state, err := c.Complete(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, api.CompleteResponse{State: state})
}
