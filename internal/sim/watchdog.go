package sim

import (
	"errors"
	"fmt"
)

// Typed terminal errors. Callers classify run outcomes with errors.Is
// instead of string matching: a watchdog trip (ErrDeadlock, ErrDrainStall)
// is deterministic — re-running the identical configuration wedges at the
// identical cycle, so retrying cannot help — while ErrCanceled is the
// caller's own interruption and additionally wraps the context's error, so
// errors.Is(err, context.Canceled) / context.DeadlineExceeded also hold.
var (
	// ErrDeadlock reports that the simulation stopped making forward
	// progress (no delivered completion, no retired instruction) for the
	// deadlock budget while cores still had work outstanding.
	ErrDeadlock = errors.New("sim: deadlock")
	// ErrDrainStall reports that the post-completion residual-write drain
	// did not converge within its budget.
	ErrDrainStall = errors.New("sim: drain did not converge")
	// ErrCanceled reports that RunContext observed its context's
	// cancellation and abandoned the run.
	ErrCanceled = errors.New("sim: run canceled")
)

// Watchdog limits, in simulated DRAM cycles without forward progress
// (a delivered read completion or a retired instruction). Residual-write
// drain after all cores finish is refresh-bound and gets a tighter budget
// than the general deadlock guard. These are variables, not constants, so
// the typed-error tests can shrink them and wedge a real run.
var (
	drainLimit    uint64 = 2_000_000
	deadlockLimit uint64 = 4_000_000
)

// drainWatchdog detects a wedged simulation. It counts consecutive
// no-progress DRAM cycles; under idle fast-forward the skipped cycles are
// charged in bulk, so the guard measures simulated time, not loop
// iterations. A fast-forward stops at the watchdog's budget, so it trips at
// the cycle, and with the pending count, of a loop that steps every cycle.
type drainWatchdog struct {
	idle uint64
	// pending counts the in-flight work that a trip's error message
	// reports; it is called only when the watchdog trips.
	pending func() int
}

// idleLimit returns the no-progress budget: the residual-write drain after
// every core has finished is refresh-bound and gets the tighter one.
func idleLimit(allDone bool) uint64 {
	if allDone {
		return drainLimit
	}
	return deadlockLimit
}

// budget returns how many more DRAM cycles without progress trip the
// watchdog: the last of them is the trip cycle.
func (w *drainWatchdog) budget(allDone bool) uint64 { return idleLimit(allDone) + 1 - w.idle }

// observe records that `cycles` simulated DRAM cycles elapsed with
// (progressed=true) or without (progressed=false) forward progress, and
// returns a typed error when the no-progress budget is exhausted.
func (w *drainWatchdog) observe(progressed bool, cycles uint64, allDone bool, cpuCycle uint64) error {
	if progressed {
		w.idle = 0
		return nil
	}
	w.idle += cycles
	if w.idle <= idleLimit(allDone) {
		return nil
	}
	if allDone {
		return fmt.Errorf("%w after %d idle cycles at cycle %d (pending=%d)", ErrDrainStall, w.idle, cpuCycle, w.pending())
	}
	return fmt.Errorf("%w at cycle %d (pending=%d)", ErrDeadlock, cpuCycle, w.pending())
}
