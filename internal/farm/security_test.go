package farm

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/farm/api"
	"repro/internal/farm/devtls"
	"repro/internal/runspec"
)

// TestAuthTokenEnforced: with Config.Token set, the whole surface — protocol
// and status endpoints alike — rejects requests without the exact bearer
// token, and accepts them with it.
func TestAuthTokenEnforced(t *testing.T) {
	co, err := NewCoordinator(Config{CacheDir: t.TempDir(), Token: "open-sesame"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	srv := httptest.NewServer(Handler(co))
	t.Cleanup(srv.Close)
	ctx := context.Background()

	good := NewClientOpts(srv.URL, ClientOptions{Token: "open-sesame"})
	if _, err := good.Submit(ctx, []runspec.Named{protoJob("a", 1)}); err != nil {
		t.Fatalf("authorized submit: %v", err)
	}
	if err := good.WaitReady(ctx, 5*time.Second); err != nil {
		t.Fatalf("authorized WaitReady: %v", err)
	}

	for name, cl := range map[string]*Client{
		"missing token": NewClientOpts(srv.URL, ClientOptions{Retry: fastRetry}),
		"wrong token":   NewClientOpts(srv.URL, ClientOptions{Token: "open-sesame-not", Retry: fastRetry}),
	} {
		_, err := cl.Submit(ctx, []runspec.Named{protoJob("a", 1)})
		if errCode(t, err) != api.CodeUnauthorized {
			t.Fatalf("%s: want unauthorized, got %v", name, err)
		}
		if !api.IsAuth(err) || api.IsTransient(err) {
			t.Fatalf("%s: must classify as fatal auth rejection: %v", name, err)
		}
	}

	// Status endpoints are inside the perimeter too: a token would be
	// pointless if /progress leaked the whole job table.
	resp, err := http.Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bare /progress: HTTP %d, want 401", resp.StatusCode)
	}

	// WaitReady must fast-fail on a credential rejection instead of burning
	// its whole timeout on an error no wait can fix.
	bad := NewClientOpts(srv.URL, ClientOptions{Token: "nope", Retry: fastRetry})
	start := time.Now()
	werr := bad.WaitReady(ctx, 30*time.Second)
	if werr == nil || !api.IsAuth(werr) {
		t.Fatalf("WaitReady with bad token: %v", werr)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("WaitReady must fail fast on auth rejection, not poll out its timeout")
	}

	// A worker with bad credentials stops with ErrUnauthorized (the distinct
	// exit-code path in cmd/simfarm-worker) instead of retry-hammering.
	n, werr2 := Work(ctx, WorkerOptions{Client: bad, Name: "intruder", PollWait: 50 * time.Millisecond})
	if !errors.Is(werr2, ErrUnauthorized) {
		t.Fatalf("worker with bad token: want ErrUnauthorized, got %v", werr2)
	}
	if n != 0 {
		t.Fatalf("unauthorized worker executed %d jobs", n)
	}
}

// TestAuthMutualTLS: a coordinator under mTLS accepts only clients that
// both pin the CA and present a CA-signed client certificate.
func TestAuthMutualTLS(t *testing.T) {
	bundle, err := devtls.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := bundle.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	p := func(name string) string { return filepath.Join(dir, name) }

	serverTLS, err := LoadServerTLS(p("server.pem"), p("server-key.pem"), p("ca.pem"))
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCoordinator(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	srv := httptest.NewUnstartedServer(Handler(co))
	srv.TLS = serverTLS
	srv.StartTLS()
	t.Cleanup(srv.Close)
	ctx := context.Background()

	// The full credential set round-trips, exactly as the CLIs wire it.
	good, err := NewClientFiles(srv.URL, p("ca.pem"), p("client.pem"), p("client-key.pem"), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Submit(ctx, []runspec.Named{protoJob("a", 1)}); err != nil {
		t.Fatalf("mTLS submit: %v", err)
	}

	// No client certificate: the handshake is refused server-side.
	caOnly, err := LoadClientTLS(p("ca.pem"), "", "")
	if err != nil {
		t.Fatal(err)
	}
	noCert := NewClientOpts(srv.URL, ClientOptions{TLS: caOnly, Retry: fastRetry})
	if _, err := noCert.Submit(ctx, []runspec.Named{protoJob("a", 1)}); err == nil {
		t.Fatal("client without a certificate must be rejected under mTLS")
	}

	// A client pinning a different CA refuses the server's certificate.
	other, err := devtls.Generate()
	if err != nil {
		t.Fatal(err)
	}
	otherDir := t.TempDir()
	if err := other.WriteDir(otherDir); err != nil {
		t.Fatal(err)
	}
	wrongCA, err := LoadClientTLS(filepath.Join(otherDir, "ca.pem"), p("client.pem"), p("client-key.pem"))
	if err != nil {
		t.Fatal(err)
	}
	skeptic := NewClientOpts(srv.URL, ClientOptions{TLS: wrongCA, Retry: fastRetry})
	if _, err := skeptic.Submit(ctx, []runspec.Named{protoJob("a", 1)}); err == nil {
		t.Fatal("a server certificate from a foreign CA must not verify")
	}

	// LoadClientTLS enforces cert/key pairing.
	if _, err := LoadClientTLS(p("ca.pem"), p("client.pem"), ""); err == nil {
		t.Fatal("client cert without its key must be rejected at load time")
	}
}

// TestWorkerRegistry: registration is advisory but visible — capabilities
// land on /progress with liveness computed against protocol activity.
func TestWorkerRegistry(t *testing.T) {
	clock := newFakeClock()
	co, cl := testFarm(t, Config{LeaseTTL: 30 * time.Second, Clock: clock.Now})
	ctx := context.Background()

	if _, err := cl.Register(ctx, api.RegisterRequest{}); errCode(t, err) != api.CodeBadRequest {
		t.Fatal("nameless registration must be rejected")
	}
	reg, err := cl.Register(ctx, api.RegisterRequest{Name: "w1", Version: api.Version, MaxMemMB: 4096})
	if err != nil || reg.Workers != 1 {
		t.Fatalf("register: %+v %v", reg, err)
	}

	ws := co.Workers()
	if len(ws) != 1 || ws[0].Name != "w1" || ws[0].MaxMemMB != 4096 || !ws[0].Live {
		t.Fatalf("workers: %+v", ws)
	}
	if s := co.Snapshot(); s.Workers != 1 {
		t.Fatalf("stats: %+v", s)
	}

	// Past 3×LeaseTTL of silence the worker reads as dead...
	clock.Advance(91 * time.Second)
	if ws := co.Workers(); ws[0].Live {
		t.Fatal("a silent worker must read as not live after 3×LeaseTTL")
	}
	// ...and any protocol activity (here a lease) revives it.
	if _, err := cl.Submit(ctx, []runspec.Named{protoJob("a", 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Lease(ctx, "w1", 0); err != nil {
		t.Fatal(err)
	}
	if ws := co.Workers(); !ws[0].Live {
		t.Fatal("protocol activity must refresh liveness")
	}

	// Re-registration refreshes capabilities in place; unregistered names
	// are never implicitly created by protocol traffic.
	if _, err := cl.Register(ctx, api.RegisterRequest{Name: "w1", MaxMemMB: 8192}); err != nil {
		t.Fatal(err)
	}
	ws = co.Workers()
	if len(ws) != 1 || ws[0].MaxMemMB != 8192 {
		t.Fatalf("refreshed registration: %+v", ws)
	}
}
