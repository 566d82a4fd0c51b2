// Package cpu implements the USIMM-style trace-driven core front end of the
// paper's methodology (Table III): a 64-entry reorder buffer retiring up to
// 4 instructions per CPU cycle. Memory reads block retirement when they
// reach the ROB head until their data returns; write-backs are posted to
// the memory controller and retire immediately. The model captures
// memory-level parallelism: independent misses within the ROB window
// overlap in the memory system.
package cpu

import (
	"math"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config sets the core's pipeline parameters.
type Config struct {
	ROBSize int // instruction window (Table III: 64)
	Width   int // retire width per CPU cycle (Table III: 4)
}

// DefaultConfig returns the Table III core.
func DefaultConfig() Config { return Config{ROBSize: 64, Width: 4} }

// IssueFunc presents one memory operation to the memory hierarchy. For
// reads it returns a completion token; accepted=false indicates
// backpressure (retry next cycle).
type IssueFunc func(core int, rec trace.Record) (token uint64, accepted bool, err error)

// Core simulates one trace-driven core.
type Core struct {
	id  int
	cfg Config
	src trace.Source

	retired uint64 // instructions retired so far

	// pending is the next memory operation not yet accepted by the memory
	// system; pendingIdx is its instruction index in the dynamic stream.
	pending    trace.Record
	pendingIdx uint64
	havePend   bool

	// Outstanding reads, in issue order, in a value ring at
	// [fHead, fHead+fLen) mod len(flights). Reads issue with monotonically
	// increasing instruction indices, so the oldest incomplete entry bounds
	// retirement; completed entries are marked, and OnComplete pops them
	// once they reach the head, so the head is always incomplete. The ring
	// is bounded by the ROB window (an unretired read keeps every younger
	// op inside the window), so OnComplete's linear scan is O(ROBSize) worst
	// case and O(outstanding) typical — and allocation-free, unlike the
	// token map it replaces.
	flights  []flight
	fHead    int
	fLen     int
	nFlights int // incomplete count

	opsIssued uint64
	opsTarget uint64
	exhausted bool // trace source ran dry before the target
	// blocked marks a core provably unable to issue or retire until one of
	// its outstanding reads completes; Cycle and Advance take a
	// constant-time stall path while it is set. OnComplete clears it.
	blocked bool
	lastIdx uint64 // instruction index just past the last issued op

	done        bool
	finishCycle uint64

	// Stats.
	Reads       stats.Counter
	Writes      stats.Counter
	StallCycles stats.Counter // cycles with zero retirement while active
}

// NewCore builds a core that consumes opsTarget memory operations from src.
func NewCore(id int, cfg Config, src trace.Source, opsTarget uint64) *Core {
	if cfg.ROBSize <= 0 || cfg.Width <= 0 {
		cfg = DefaultConfig()
	}
	return &Core{
		id:        id,
		cfg:       cfg,
		src:       src,
		opsTarget: opsTarget,
	}
}

// flight is one outstanding read.
type flight struct {
	idx   uint64
	token uint64
	done  bool
}

// Done reports whether the core has issued and completed all operations.
func (c *Core) Done() bool { return c.done }

// FinishCycle returns the CPU cycle at which the core completed (valid once
// Done).
func (c *Core) FinishCycle() uint64 { return c.finishCycle }

// Retired returns instructions retired so far.
func (c *Core) Retired() uint64 { return c.retired }

// OpsIssued returns memory operations issued so far.
func (c *Core) OpsIssued() uint64 { return c.opsIssued }

// OnComplete delivers a finished read token.
func (c *Core) OnComplete(token uint64) {
	c.blocked = false
	mask := len(c.flights) - 1
	for i := 0; i < c.fLen; i++ {
		f := &c.flights[(c.fHead+i)&mask]
		if !f.done && f.token == token {
			f.done = true
			c.nFlights--
			break
		}
	}
	for c.fLen > 0 && c.flights[c.fHead].done {
		c.fHead = (c.fHead + 1) & mask
		c.fLen--
	}
}

// pushFlight appends an outstanding read to the ring, growing it (rare:
// only until it reaches the ROB-bounded steady-state size) when full.
func (c *Core) pushFlight(f flight) {
	if c.fLen == len(c.flights) {
		size := 2 * len(c.flights)
		if size == 0 {
			size = 16
		}
		next := make([]flight, size)
		for i := 0; i < c.fLen; i++ {
			next[i] = c.flights[(c.fHead+i)&(len(c.flights)-1)]
		}
		c.flights = next
		c.fHead = 0
	}
	c.flights[(c.fHead+c.fLen)&(len(c.flights)-1)] = f
	c.fLen++
}

// retireBound returns the instruction index retirement cannot pass: the
// oldest outstanding read or the unissued pending op, whichever comes
// first (MaxUint64 when there is neither).
func (c *Core) retireBound() uint64 {
	bound := uint64(math.MaxUint64)
	if c.fLen > 0 {
		bound = c.flights[c.fHead].idx
	}
	if c.havePend && c.pendingIdx < bound {
		bound = c.pendingIdx
	}
	return bound
}

// retiredAfter returns the retired count after n cycles that each retire
// up to Width instructions but never past bound. The product n*Width is
// taken in 128 bits, so it cannot overflow for any Width.
func (c *Core) retiredAfter(n, bound uint64) uint64 {
	hi, lo := bits.Mul64(n, uint64(c.cfg.Width))
	if hi == 0 && lo < bound-c.retired {
		return c.retired + lo
	}
	return bound
}

// retiringCycles returns how many cycles retire instructions before
// retirement reaches bound: ceil((bound-retired)/Width).
func (c *Core) retiringCycles(bound uint64) uint64 {
	d := bound - c.retired
	if d == 0 {
		return 0
	}
	return (d-1)/uint64(c.cfg.Width) + 1
}

// frozen reports whether a core that cannot retire cannot issue either
// until one of its outstanding reads completes: its trace is exhausted, or
// its next op sits outside the ROB window, whose lower edge only advances
// when retirement does.
func (c *Core) frozen() bool {
	return c.nFlights > 0 &&
		((c.exhausted && !c.havePend) || (c.havePend && c.pendingIdx >= c.retired+uint64(c.cfg.ROBSize)))
}

// finished reports whether the core has nothing left to issue or wait for.
func (c *Core) finished() bool {
	return c.nFlights == 0 && (c.opsIssued >= c.opsTarget || (c.exhausted && !c.havePend))
}

// loadPending pulls the next memory op from the trace, assigning its
// instruction index (after Gap non-memory instructions).
func (c *Core) loadPending() {
	if c.havePend || c.opsIssued >= c.opsTarget || c.exhausted {
		return
	}
	rec, ok := c.src.Next()
	if !ok {
		c.exhausted = true
		return
	}
	c.pending = rec
	// The op executes after its gap of non-memory instructions, relative
	// to the previously issued op's position.
	c.pendingIdx = c.issueBase() + uint64(rec.Gap)
	c.havePend = true
}

// issueBase returns the instruction index just past the last issued op.
func (c *Core) issueBase() uint64 { return c.lastIdx }

// Cycle advances the core one CPU cycle: it issues ready memory operations
// (bounded by the ROB window and issue width) and retires instructions.
// active reports whether any architectural state changed (an op issued or
// pulled from the trace, instructions retired, or the core finished); a
// cycle with active=false would repeat identically every cycle until a read
// completion arrives, except for the stall counter — which Advance charges
// arithmetically during fast-forward.
func (c *Core) Cycle(now uint64, issue IssueFunc) (active bool, err error) {
	if c.done {
		return false, nil
	}
	if c.blocked {
		// Frozen until a read completes (see below): nothing to issue,
		// nothing to retire. Account the stall and return.
		c.StallCycles.Inc()
		return false, nil
	}
	// Issue: ops whose position fits inside the ROB window.
	for issued := 0; issued < c.cfg.Width; issued++ {
		hadPend, wasExhausted := c.havePend, c.exhausted
		c.loadPending()
		if c.havePend != hadPend || c.exhausted != wasExhausted {
			active = true
		}
		if !c.havePend {
			break
		}
		if c.pendingIdx >= c.retired+uint64(c.cfg.ROBSize) {
			break // op hasn't entered the ROB yet
		}
		token, accepted, err := issue(c.id, c.pending)
		if err != nil {
			return active, err
		}
		if !accepted {
			break // memory-system backpressure
		}
		active = true
		if c.pending.Type == mem.Read {
			c.pushFlight(flight{idx: c.pendingIdx, token: token})
			c.nFlights++
			c.Reads.Inc()
		} else {
			c.Writes.Inc()
		}
		c.opsIssued++
		c.lastIdx = c.pendingIdx + 1
		c.havePend = false
	}

	// Retire: up to Width instructions, not past the oldest incomplete
	// read and not past an unissued (stalled) memory op.
	limit := min(c.retired+uint64(c.cfg.Width), c.retireBound())
	if limit == c.retired {
		c.StallCycles.Inc()
		// If the issue side cannot move either, the core's entire state is
		// frozen until an outstanding read completes. OnComplete clears the
		// flag.
		if !active && c.frozen() {
			c.blocked = true
		}
	} else {
		active = true
	}
	c.retired = limit

	if c.finished() {
		c.done = true
		c.finishCycle = now
		active = true
	}
	return active, nil
}

// QuietFor returns the largest k for which k calls to Cycle, with no read
// completing, never call their issue function (math.MaxUint64 when no
// number of cycles would): the core is done or blocked, has no pending op
// and cannot load one, or keeps its pending op outside the ROB window
// through the k-th cycle although retirement moves the window up. A core
// that could still load an op is not quiet: QuietFor is 0. QuietFor
// changes no state.
func (c *Core) QuietFor() uint64 {
	if c.done || c.blocked {
		return math.MaxUint64
	}
	if !c.havePend {
		if c.opsIssued >= c.opsTarget || c.exhausted {
			return math.MaxUint64
		}
		return 0
	}
	rob := uint64(c.cfg.ROBSize)
	if c.pendingIdx < c.retired+rob {
		return 0
	}
	// The op stays outside the window while retired <= lim, and the k-th
	// cycle checks the window after k-1 cycles of retirement.
	lim := c.pendingIdx - rob
	if c.retireBound() <= lim {
		return math.MaxUint64
	}
	return (lim-c.retired)/uint64(c.cfg.Width) + 1
}

// Settled reports that the next cycle, with no read completing and no op
// accepted, can neither pull an op from the trace nor finish the core. Such
// cycles then change only the retired count, the stall counter and the
// blocked flag, until a read completes or an op is accepted.
func (c *Core) Settled() bool {
	if c.done || c.havePend {
		return true
	}
	return (c.opsIssued >= c.opsTarget || c.exhausted) && c.nFlights > 0
}

// RetiringFor returns how many of the next cycles of a Settled core, with
// no read completing and no op accepted, retire instructions: the first
// ones, up to the retirement bound, after which every cycle stalls.
// RetiringFor changes no state.
func (c *Core) RetiringFor() uint64 {
	if c.done || c.blocked {
		return 0
	}
	return c.retiringCycles(c.retireBound())
}

// Advance is exactly k calls to Cycle, at cycles now to now+k-1, in which
// no read completes and no operation is accepted: the caller delivers no
// completion and refuses every issue, or knows that QuietFor() >= k. Only
// the first cycle can pull the next op from the trace or finish the core;
// from then on the retirement bound is fixed, so the cycles reduce to
// arithmetic.
func (c *Core) Advance(now, k uint64) {
	if c.done || k == 0 {
		return
	}
	if c.blocked {
		c.StallCycles.Add(k)
		return
	}
	hadPend, wasExhausted := c.havePend, c.exhausted
	c.loadPending()
	loaded := c.havePend != hadPend || c.exhausted != wasExhausted
	if c.finished() {
		// Cycle retires once more and finishes in the first cycle.
		c.done = true
		c.finishCycle = now
		k = 1
	}
	bound := c.retireBound()
	retired := c.retiredAfter(k, bound)
	// Every cycle retires until retirement reaches the bound; the rest
	// stall.
	n := k
	if retired == bound {
		n = c.retiringCycles(bound)
	}
	c.retired = retired
	c.StallCycles.Add(k - n)
	// The first stall cycle, cycle n, blocks a frozen core, unless it is
	// the first cycle and the load made it active; then the second does.
	if n < k && (n > 0 || !loaded || k > 1) && c.frozen() {
		c.blocked = true
	}
}
