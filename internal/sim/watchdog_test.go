package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// pendingCount returns a pending-work counter for a watchdog under test
// that reports n and counts its calls.
func pendingCount(n int, calls *int) func() int {
	return func() int {
		*calls++
		return n
	}
}

func TestWatchdogDrainConvergence(t *testing.T) {
	var calls int
	w := drainWatchdog{pending: pendingCount(5, &calls)}
	// Progress resets the budget.
	if err := w.observe(false, drainLimit, true, 0); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if err := w.observe(true, 1, true, 0); err != nil {
		t.Fatal(err)
	}
	if w.idle != 0 {
		t.Fatal("progress must reset the idle count")
	}
	// One cycle past the drain budget fails with the drain error.
	if err := w.observe(false, drainLimit, true, 0); err != nil {
		t.Fatalf("at budget: %v", err)
	}
	if calls != 0 {
		t.Fatalf("pending counted %d times before the watchdog tripped", calls)
	}
	err := w.observe(false, 1, true, 123)
	want := fmt.Sprintf("drain did not converge after %d idle cycles at cycle 123 (pending=5)", drainLimit+1)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("want drain-convergence error, got %v", err)
	}
	if !errors.Is(err, ErrDrainStall) {
		t.Fatalf("drain stall must be typed ErrDrainStall, got %v", err)
	}
	if errors.Is(err, ErrDeadlock) {
		t.Fatalf("drain stall must not classify as deadlock: %v", err)
	}
}

func TestWatchdogDeadlock(t *testing.T) {
	var calls int
	w := drainWatchdog{pending: pendingCount(7, &calls)}
	// The deadlock budget is larger than the drain budget and reports the
	// stuck cycle and pending count.
	if err := w.observe(false, deadlockLimit, false, 0); err != nil {
		t.Fatalf("at budget: %v", err)
	}
	err := w.observe(false, 1, false, 42)
	if err == nil || !strings.Contains(err.Error(), "deadlock at cycle 42 (pending=7)") {
		t.Fatalf("want deadlock error, got %v", err)
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("deadlock must be typed ErrDeadlock, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("pending counted %d times, want once, at the trip", calls)
	}
	if errors.Is(err, ErrDrainStall) {
		t.Fatalf("deadlock must not classify as drain stall: %v", err)
	}
}

// TestWatchdogCountsSimulatedCycles is the fast-forward regression: a bulk
// skip of N cycles must consume exactly N cycles of budget, the same as N
// tick-by-tick observations.
func TestWatchdogCountsSimulatedCycles(t *testing.T) {
	var calls int
	bulk := drainWatchdog{pending: pendingCount(0, &calls)}
	var stepped drainWatchdog
	if err := bulk.observe(false, 1_500_000, true, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1_500_000; i++ {
		if err := stepped.observe(false, 1, true, 0); err != nil {
			t.Fatal(err)
		}
	}
	if bulk.idle != stepped.idle {
		t.Fatalf("bulk idle %d != stepped idle %d", bulk.idle, stepped.idle)
	}
	// Both trip on the same additional cycle count.
	if err := bulk.observe(false, drainLimit-1_500_000, true, 0); err != nil {
		t.Fatalf("bulk at limit: %v", err)
	}
	if err := bulk.observe(false, 1, true, 0); err == nil {
		t.Fatal("bulk watchdog did not trip past the limit")
	}
}

// TestWatchdogBudget: a fast-forward clamped to the budget trips the
// watchdog on its last cycle, as a loop observing one cycle at a time
// would; one cycle fewer leaves it running.
func TestWatchdogBudget(t *testing.T) {
	for _, allDone := range []bool{false, true} {
		var calls int
		w := drainWatchdog{pending: pendingCount(0, &calls)}
		if err := w.observe(false, 1000, allDone, 0); err != nil {
			t.Fatal(err)
		}
		b := w.budget(allDone)
		if err := w.observe(false, b-1, allDone, 0); err != nil {
			t.Fatalf("allDone=%v: tripped one cycle before the budget ran out: %v", allDone, err)
		}
		if err := w.observe(false, 1, allDone, 0); err == nil {
			t.Fatalf("allDone=%v: did not trip when the budget ran out", allDone)
		}
	}
}
