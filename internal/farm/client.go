package farm

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/farm/api"
	"repro/internal/runspec"
	"repro/internal/sim"
)

// RetryPolicy bounds the client's transient-error retries: up to Attempts
// tries per call, sleeping a jittered exponential backoff that starts at
// Base and caps at Cap. Fatal errors (bad_request, not_found, lease_gone,
// unauthorized, context cancellation — see api.IsTransient) never retry.
type RetryPolicy struct {
	Attempts int
	Base     time.Duration
	Cap      time.Duration
}

// DefaultRetry rides out a coordinator restart: 8 attempts over roughly
// 20 seconds of cumulative backoff (100ms, 200ms, ... capped at 5s).
var DefaultRetry = RetryPolicy{Attempts: 8, Base: 100 * time.Millisecond, Cap: 5 * time.Second}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = DefaultRetry.Attempts
	}
	if p.Base <= 0 {
		p.Base = DefaultRetry.Base
	}
	if p.Cap <= 0 {
		p.Cap = DefaultRetry.Cap
	}
	return p
}

// ClientOptions configure transport security and resilience. The zero
// value is a plaintext client with default retries — exactly what
// NewClient builds.
type ClientOptions struct {
	// Token, when non-empty, is attached to every request as an
	// "Authorization: Bearer" header.
	Token string
	// TLS, when non-nil, dials the coordinator over HTTPS with this
	// config (use LoadClientTLS to build one from PEM files). Bare
	// host:port addresses then default to the https scheme.
	TLS *tls.Config
	// Retry bounds transient-error retries; zero fields take DefaultRetry.
	Retry RetryPolicy
}

// Client speaks the api protocol to a coordinator. The zero value is not
// usable; construct with NewClient or NewClientOpts.
type Client struct {
	base  string
	http  *http.Client
	token string
	retry RetryPolicy
}

// NewClient returns a plaintext client for the coordinator at addr with
// default retries. addr may be a bare host:port or a full http:// URL.
func NewClient(addr string) *Client {
	return NewClientOpts(addr, ClientOptions{})
}

// NewClientOpts returns a client for the coordinator at addr. addr may be
// a bare host:port or a full URL; bare addresses default to http://, or
// https:// when opts.TLS is set.
func NewClientOpts(addr string, opts ClientOptions) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		if opts.TLS != nil {
			base = "https://" + base
		} else {
			base = "http://" + base
		}
	}
	base = strings.TrimRight(base, "/")
	// No global timeout: lease and sweep-status long-polls legitimately
	// hold a request open for tens of seconds. Per-call deadlines come
	// from the context. Each client keeps its own connection pool: a
	// worker holds two connections, one for its lease long-poll and one
	// for its result push, and in a pool shared with other clients of the
	// process (two idle connections per host) they would be closed and
	// redialed over and over.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.TLSClientConfig = opts.TLS
	return &Client{base: base, http: &http.Client{Transport: tr}, token: opts.Token, retry: opts.Retry.withDefaults()}
}

// NewClientFiles builds a client from CLI-style credential file paths: the
// common -ca/-cert/-key/-token flag plumbing shared by simfarm,
// simfarm-worker, and experiments. Empty paths mean plaintext; a CA alone
// pins the server certificate; cert+key adds mutual TLS.
func NewClientFiles(addr, caFile, certFile, keyFile, token string) (*Client, error) {
	var tcfg *tls.Config
	if caFile != "" || certFile != "" || keyFile != "" {
		var err error
		tcfg, err = LoadClientTLS(caFile, certFile, keyFile)
		if err != nil {
			return nil, err
		}
	}
	return NewClientOpts(addr, ClientOptions{Token: token, TLS: tcfg}), nil
}

// do performs one JSON round trip. A non-2xx response decodes into an
// *api.Error when it carries the protocol envelope, an *api.HTTPStatusError
// otherwise; transport failures are returned as-is.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("farm: client: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("farm: client: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("farm: client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		var env api.ErrorEnvelope
		if jerr := json.Unmarshal(raw, &env); jerr == nil && env.Err.Code != "" {
			return &env.Err
		}
		return &api.HTTPStatusError{Status: resp.StatusCode, Body: strings.TrimSpace(string(raw))}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("farm: client: %s %s: %w", method, path, err)
	}
	return nil
}

// doRetry wraps do with the client's retry policy: transient errors (see
// api.IsTransient) are retried with jittered exponential backoff until the
// attempt budget runs out or the context fires; fatal errors return
// immediately. Retrying is safe across the protocol because every mutating
// endpoint is idempotent or fenced: submission is content-addressed, and a
// duplicate heartbeat/complete for a lease the first delivery already
// settled answers lease_gone, which callers treat as "someone (possibly my
// own earlier attempt) got there first".
func (c *Client) doRetry(ctx context.Context, method, path string, in, out any) error {
	backoff := c.retry.Base
	for attempt := 1; ; attempt++ {
		err := c.do(ctx, method, path, in, out)
		if err == nil || !api.IsTransient(err) || attempt >= c.retry.Attempts {
			return err
		}
		// Full jitter in [backoff/2, backoff): desynchronizes a worker
		// fleet that all lost the same coordinator at the same instant.
		sleep := backoff/2 + time.Duration(rand.Int64N(int64(backoff/2)+1))
		select {
		case <-ctx.Done():
			return errors.Join(ctx.Err(), err)
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > c.retry.Cap {
			backoff = c.retry.Cap
		}
	}
}

// WaitReady polls the coordinator's /progress endpoint until it answers or
// the timeout passes — the startup handshake for workers and batch clients
// racing a freshly booted simfarmd. Credential rejections fail immediately:
// no amount of waiting fixes a bad token.
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		pctx, cancel := context.WithTimeout(ctx, time.Second)
		err := c.do(pctx, http.MethodGet, "/progress", nil, &struct{}{})
		cancel()
		if err == nil {
			return nil
		}
		if api.IsAuth(err) {
			return fmt.Errorf("farm: coordinator at %s rejected credentials: %w", c.base, err)
		}
		last = err
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
	return fmt.Errorf("farm: coordinator at %s not ready after %v: %w", c.base, timeout, last)
}

// Submit submits a sweep (idempotent by content hash).
func (c *Client) Submit(ctx context.Context, jobs []runspec.Named) (*api.SubmitResponse, error) {
	var resp api.SubmitResponse
	if err := c.doRetry(ctx, http.MethodPost, api.PathSubmit, api.SubmitRequest{Jobs: jobs}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Lease long-polls for the next queued job; a nil lease with nil error
// means nothing was available within the window.
func (c *Client) Lease(ctx context.Context, worker string, wait time.Duration) (*api.Lease, error) {
	var resp api.LeaseResponse
	req := api.LeaseRequest{Worker: worker, WaitMS: wait.Milliseconds()}
	if err := c.doRetry(ctx, http.MethodPost, api.PathLease, req, &resp); err != nil {
		return nil, err
	}
	return resp.Job, nil
}

// Heartbeat renews a lease.
func (c *Client) Heartbeat(ctx context.Context, lease string) error {
	return c.doRetry(ctx, http.MethodPost, api.PathHeartbeat, api.HeartbeatRequest{Lease: lease}, nil)
}

// Complete pushes a leased job's result or classified failure.
func (c *Client) Complete(ctx context.Context, req api.CompleteRequest) (*api.CompleteResponse, error) {
	var resp api.CompleteResponse
	if err := c.doRetry(ctx, http.MethodPost, api.PathComplete, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Register announces a worker and its capabilities to the coordinator.
// Advisory: a coordinator predating the endpoint answers 404/405, which
// callers should treat as "registration unsupported", not failure.
func (c *Client) Register(ctx context.Context, req api.RegisterRequest) (*api.RegisterResponse, error) {
	var resp api.RegisterResponse
	if err := c.doRetry(ctx, http.MethodPost, api.PathWorkers, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Sweep fetches a sweep's status with every job row.
func (c *Client) Sweep(ctx context.Context, id string) (*api.SweepStatus, error) {
	return c.sweepSince(ctx, id, "", 0)
}

// sweepSince fetches a sweep's status with only the rows changed since
// cursor (every row when cursor is empty or foreign to the coordinator),
// long-polling up to wait for a row to change when none has.
func (c *Client) sweepSince(ctx context.Context, id, cursor string, wait time.Duration) (*api.SweepStatus, error) {
	q := url.Values{}
	if cursor != "" {
		q.Set(api.QuerySince, cursor)
	}
	if wait > 0 {
		q.Set(api.QueryWait, strconv.FormatInt(wait.Milliseconds(), 10))
	}
	path := api.PathSweep + id
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var resp api.SweepStatus
	if err := c.doRetry(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Result fetches one run's summary by spec content hash.
func (c *Client) Result(ctx context.Context, hash string) (*api.ResultResponse, error) {
	var resp api.ResultResponse
	if err := c.doRetry(ctx, http.MethodGet, api.PathResult+hash, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// RunSweep is the batch front door: submit jobs, wait until every job is
// terminal, and return summaries keyed by job key — the remote equivalent
// of runner.Run. It fetches the full status table once, then long-polls
// (for up to the coordinator's cap) for the rows changed since the
// previous answer and merges them by key, so a sweep's status traffic
// grows with its state changes, not with wall-clock time. Results ride in
// the rows: a done or cached row carries its summary, so RunSweep makes no
// result request, and a done or cached row without one is an error for
// its key. onDone, when non-nil, is called once per key as jobs reach
// terminal states (serialized, with monotonically increasing done counts
// out of the sweep's size). Failed jobs are reported like the runner
// reports them: one error per failed job, joined in first-seen key order,
// with every missing key accounted for.
func (c *Client) RunSweep(ctx context.Context, jobs []runspec.Named, onDone func(done, total int, key string, cached bool)) (map[string]*sim.Summary, error) {
	sub, err := c.Submit(ctx, jobs)
	if err != nil {
		return nil, err
	}
	rows := make(map[string]api.JobStatus, sub.Jobs) // the merged table
	var keys []string                                // rows' keys, first-seen order
	reported := map[string]bool{}
	var cursor string // empty: the first fetch gets the full table at once
	for {
		st, err := c.sweepSince(ctx, sub.Sweep, cursor, maxPollWait)
		if err != nil {
			return nil, err
		}
		cursor = st.Cursor
		for _, j := range st.Jobs {
			if _, seen := rows[j.Key]; !seen {
				keys = append(keys, j.Key)
			}
			rows[j.Key] = j
		}
		if onDone != nil {
			// Report newly terminal jobs in deterministic (key) order.
			var fresh []api.JobStatus
			for _, j := range st.Jobs {
				if !reported[j.Key] && terminal(j.State) {
					fresh = append(fresh, j)
				}
			}
			sort.Slice(fresh, func(i, k int) bool { return fresh[i].Key < fresh[k].Key })
			for _, j := range fresh {
				reported[j.Key] = true
				onDone(len(reported), sub.Jobs, j.Key, j.State == api.StateCached)
			}
		}
		if st.Complete {
			break
		}
	}

	results := make(map[string]*sim.Summary, len(keys))
	var errs []error
	for _, key := range keys {
		switch j := rows[key]; {
		case j.State == api.StateFailed:
			errs = append(errs, fmt.Errorf("%s: %s", j.Key, j.Error))
		case j.Summary == nil:
			errs = append(errs, fmt.Errorf("%s: %s row carries no summary", j.Key, j.State))
		default:
			results[key] = j.Summary
		}
	}
	return results, errors.Join(errs...)
}

// terminal reports whether a job state is final.
func terminal(state string) bool {
	switch state {
	case api.StateDone, api.StateCached, api.StateFailed:
		return true
	}
	return false
}
