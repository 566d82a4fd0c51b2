// Command simfarm-worker is a stateless sweep-farm worker: it long-polls a
// simfarmd coordinator for job leases, executes each leased spec through
// the ordinary runner (with an optional local .runcache), keeps the lease
// alive with heartbeats while simulating, and pushes the summary — or a
// classified failure — back. Any number of workers may point at one
// coordinator; a worker that dies mid-job loses nothing but its lease.
// Transient coordinator failures (restarts, network blips) are ridden out
// with jittered backoff; a credential rejection is fatal and exits with a
// distinct code.
//
// Usage:
//
//	simfarm-worker -farm localhost:8344 [-cache-dir worker.cache] [-exit-idle 30s]
//	simfarm-worker -farm farm.internal:8344 -ca certs/ca.pem \
//	    -cert certs/client.pem -key certs/client-key.pem -token $FARM_TOKEN
//
// Exit codes: 0 clean (including idle exit and interrupt), 4 when the
// coordinator rejected this worker's credentials (bad token or client
// certificate — retrying cannot help), 1 for other errors, 2 for flag
// errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/api"
)

func main() {
	farmAddr := flag.String("farm", "", "coordinator address (host:port or http(s) URL); required")
	name := flag.String("name", "", "worker name shown on the coordinator's status surfaces (default host-pid)")
	cacheDir := flag.String("cache-dir", "", "local content-addressed result cache; already-local hashes complete without re-simulating (empty = none)")
	poll := flag.Duration("poll", 10*time.Second, "long-poll window per lease request")
	jobTimeout := flag.Duration("job-timeout", 0, "per-simulation wall-clock deadline, pushed back as a timeout-class failure (0 = none)")
	exitIdle := flag.Duration("exit-idle", 0, "exit cleanly after this long without being granted a job (0 = run until interrupted)")
	maxMemMB := flag.Int("max-mem-mb", 0, "advertised simulation memory budget in MiB, shown on the coordinator's /progress (0 = unknown)")
	caFile := flag.String("ca", "", "CA bundle (PEM) pinning the coordinator's TLS certificate; implies https")
	certFile := flag.String("cert", "", "client TLS certificate (PEM) for mutual TLS; requires -key")
	keyFile := flag.String("key", "", "client TLS private key (PEM)")
	token := flag.String("token", "", "bearer token attached to every request (Authorization: Bearer)")
	flag.Parse()

	if *farmAddr == "" {
		fmt.Fprintln(os.Stderr, "simfarm-worker: -farm is required")
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client, err := farm.NewClientFiles(*farmAddr, *caFile, *certFile, *keyFile, *token)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simfarm-worker:", err)
		os.Exit(1)
	}
	if err := client.WaitReady(ctx, 30*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "simfarm-worker:", err)
		os.Exit(exitCode(err))
	}
	n, err := farm.Work(ctx, farm.WorkerOptions{
		Client:     client,
		Name:       *name,
		CacheDir:   *cacheDir,
		JobTimeout: *jobTimeout,
		PollWait:   *poll,
		IdleExit:   *exitIdle,
		MaxMemMB:   *maxMemMB,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[%s] %s\n", *name, fmt.Sprintf(format, args...))
		},
	})
	fmt.Fprintf(os.Stderr, "[%s] executed %d jobs\n", *name, n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simfarm-worker:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode separates "the farm said no" (4: bad credentials, retrying is
// pointless — stop the unit, don't restart-loop it) from other failures.
func exitCode(err error) int {
	if errors.Is(err, farm.ErrUnauthorized) || api.IsAuth(err) {
		return 4
	}
	return 1
}
