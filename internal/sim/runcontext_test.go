package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

func tinyConfig(t *testing.T) Config {
	t.Helper()
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		SchemeName: "itesp",
		Benchmark:  spec,
		Cores:      1,
		Channels:   1,
		OpsPerCore: 1_000,
		Seed:       7,
	}
}

// TestRunSurfacesErrDeadlock wedges a real run by shrinking the deadlock
// budget below a single memory access's latency: the very first blocked
// read then exhausts it, and the typed error must surface through Run
// itself, not just the watchdog unit.
func TestRunSurfacesErrDeadlock(t *testing.T) {
	old := deadlockLimit
	deadlockLimit = 8
	defer func() { deadlockLimit = old }()

	_, err := Run(tinyConfig(t))
	if err == nil {
		t.Fatal("a run with an 8-cycle deadlock budget must wedge")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want errors.Is(err, ErrDeadlock), got %v", err)
	}
	if errors.Is(err, ErrDrainStall) || errors.Is(err, ErrCanceled) {
		t.Fatalf("deadlock must not classify as drain stall or cancellation: %v", err)
	}
}

// TestRunContextPreCanceled: an already-dead context aborts before any
// simulation work, wrapping both ErrCanceled and the context's own error.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, tinyConfig(t))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Time{})
	defer dcancel()
	_, err = RunContext(dctx, tinyConfig(t))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping context.DeadlineExceeded, got %v", err)
	}
}

// flipCtx is a cancelable-looking context whose Err flips to canceled after
// a fixed number of checks, making mid-run cancellation deterministic: the
// first stride check observes nil, the second observes cancellation.
type flipCtx struct {
	context.Context
	calls, after int
}

func (c *flipCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestRunContextCancelMidRun drives cancellation through the stride check
// inside the main loop and asserts the error names the interruption cycle.
// The run must last at least cancelStride loop iterations to reach that
// check: a context that never fires sees the entry check and at least one
// stride check.
func TestRunContextCancelMidRun(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.OpsPerCore = 20_000
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	live := &flipCtx{Context: base, after: math.MaxInt}
	if _, err := RunContext(live, cfg); err != nil {
		t.Fatal(err)
	}
	if live.calls < 2 {
		t.Fatalf("the run made no stride check: it ends within %d loop iterations", cancelStride)
	}
	fc := &flipCtx{Context: base, after: 1} // entry check passes, first stride check fires
	_, err := RunContext(fc, cfg)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want mid-run cancellation, got %v", err)
	}
	if strings.Contains(err.Error(), "at cycle 0:") {
		t.Fatalf("mid-run cancellation should report a nonzero cycle: %v", err)
	}
	if fc.calls != 2 {
		t.Fatalf("cancellation must have been observed by the first stride check, calls=%d", fc.calls)
	}
}

// TestRunContextBitIdentical: a cancelable context that never fires takes
// the checking path yet produces the exact result of the uncancellable
// Run — the cancellation stride is observationally free.
func TestRunContextBitIdentical(t *testing.T) {
	cfg := tinyConfig(t)
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Summarize(), got.Summarize()) {
		t.Fatal("RunContext with a live (uncanceled) context diverged from Run")
	}
}
