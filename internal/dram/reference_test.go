package dram

import (
	"math/rand"
	"testing"

	"repro/internal/addrmap"
	"repro/internal/mem"
)

// refMemory is a memo-free reference FR-FCFS: every cycle it scans every
// pending completion, evaluates every rank's refresh state, and picks by a
// flat arrival-order scan over every queued transaction. It shares with
// Memory only the per-transaction readiness test (cmdReady), the command
// effects (issue, issueRefresh) and the queue insert that issue's removal
// undoes (push), so the production scheduler's memos — nextTry, refNext,
// the queue counts, the per-bank queues, the head tables with their class
// heads, and the heads' release times with the rank gates folded in — are
// all checked against the plain definition.
type refMemory struct {
	m *Memory // channel state; its own Tick is never called
	// rq/wq are each channel's queues in arrival order. push and issue keep
	// the channel's own per-bank queues and head tables in step, but the
	// reference never reads them.
	rq, wq [][]*Txn
}

func newRefMemory(cfg Config) *refMemory {
	return &refMemory{
		m:  New(cfg),
		rq: make([][]*Txn, cfg.Geom.Channels),
		wq: make([][]*Txn, cfg.Geom.Channels),
	}
}

func (r *refMemory) enqueue(t *Txn, now uint64) bool {
	c := t.Loc.Channel
	q, capacity := &r.rq[c], r.m.cfg.ReadQ
	if t.Op.Type == mem.Write {
		q, capacity = &r.wq[c], r.m.cfg.WriteQ
	}
	if len(*q) >= capacity {
		return false
	}
	t.Arrival = now
	r.m.channels[c].push(t)
	*q = append(*q, t)
	return true
}

func (r *refMemory) pending() int {
	n := 0
	for c, ch := range r.m.channels {
		n += len(r.rq[c]) + len(r.wq[c]) + len(ch.pending)
	}
	return n
}

// tick simulates cycle now on every channel and returns how many
// transactions completed.
func (r *refMemory) tick(now uint64) int {
	done := 0
	for c, ch := range r.m.channels {
		for i := 0; i < len(ch.pending); {
			if ch.pending[i].Done <= now {
				ch.pending = append(ch.pending[:i], ch.pending[i+1:]...)
				done++
				continue
			}
			i++
		}
		if ch.busFreeAt > now {
			ch.Stats.BusBusy.Inc()
		}
		if len(r.wq[c]) >= ch.cfg.HighWM {
			ch.draining = true
		} else if len(r.wq[c]) <= ch.cfg.LowWM {
			ch.draining = false
		}
		for i := range ch.ranks {
			if rk := &ch.ranks[i]; now >= rk.nextRef {
				rk.refPending = true
			}
		}
		if ch.issueRefresh(now) {
			continue
		}
		primary, secondary := &r.rq[c], &r.wq[c]
		if ch.draining || len(r.rq[c]) == 0 {
			primary, secondary = secondary, primary
		}
		if !refPick(ch, primary, now) {
			refPick(ch, secondary, now)
		}
	}
	return done
}

// refPick issues FR-FCFS's choice from one queue: the oldest ready column
// command in the rank that last used the data bus, else the oldest ready
// column command, else the oldest ready ACT or PRE. It reports whether a
// command issued.
func refPick(ch *channel, q *[]*Txn, now uint64) bool {
	var colLR, col, other *Txn
	var colCmd, otherCmd cmd
	for _, t := range *q {
		switch c, _ := ch.cmdReady(t, now); c {
		case cmdNone:
		case cmdRead, cmdWrite:
			colCmd = c
			if colLR == nil && t.Loc.Rank == ch.lastRank {
				colLR = t
			}
			if col == nil {
				col = t
			}
		default:
			if other == nil {
				other, otherCmd = t, c
			}
		}
	}
	pick, c := other, otherCmd
	if col != nil {
		pick, c = col, colCmd
	}
	if colLR != nil {
		pick = colLR
	}
	if pick == nil {
		return false
	}
	ch.issue(pick, c, now)
	if c == cmdRead || c == cmdWrite {
		for i, t := range *q {
			if t == pick {
				*q = append((*q)[:i], (*q)[i+1:]...)
				break
			}
		}
	}
	return true
}

// arrival is one transaction of a differential run: it arrives gap cycles
// after the previous one was accepted.
type arrival struct {
	gap   uint64
	write bool
	loc   addrmap.Location
}

// commandCounts sums the per-channel command and row-hit counters that
// change only when a command issues.
func commandCounts(m *Memory) [6]uint64 {
	var n [6]uint64
	for _, ch := range m.channels {
		s := &ch.Stats
		for i, v := range []uint64{s.Activates.Value(), s.Precharges.Value(), s.Refreshes.Value(),
			s.Reads.Value(), s.Writes.Value(), s.RowHits.Value()} {
			n[i] += v
		}
	}
	return n
}

// runDifferential drives Memory and the reference with the same traffic,
// both under protocol checkers. Memory fast-forwards idle stretches with
// NextEvent/SkipTo exactly as the simulation loop does; the reference ticks
// every cycle. Every cycle must agree on the number of completions and on
// the command counters, and every transaction on Done and RowHit.
func runDifferential(t *testing.T, cfg Config, traffic []arrival) {
	t.Helper()
	fast, ref := New(cfg), newRefMemory(cfg)
	checkers := append(fast.AttachCheckers(), ref.m.AttachCheckers()...)
	fastT, refT := make([]*Txn, len(traffic)), make([]*Txn, len(traffic))
	limit := uint64(len(traffic))*2000 + 1_000_000
	for _, a := range traffic {
		limit += a.gap
	}
	var buf []*Txn
	var now, due uint64
	if len(traffic) > 0 {
		due = traffic[0].gap
	}
	next := 0
	for next < len(traffic) || fast.Pending() > 0 || ref.pending() > 0 {
		for next < len(traffic) && due <= now {
			a := traffic[next]
			op := mem.Op{Type: mem.Read}
			if a.write {
				op.Type = mem.Write
			}
			ft, rt := &Txn{Op: op, Loc: a.loc}, &Txn{Op: op, Loc: a.loc}
			okFast, okRef := fast.Enqueue(ft), ref.enqueue(rt, now)
			if okFast != okRef {
				t.Fatalf("cycle %d: Enqueue accepted %v, reference %v", now, okFast, okRef)
			}
			if !okFast {
				break
			}
			fastT[next], refT[next] = ft, rt
			next++
			if next < len(traffic) {
				due = now + traffic[next].gap
			}
		}
		got := 0
		if fast.Now() == now {
			var active bool
			buf, active = fast.Tick(buf[:0])
			got = len(buf)
			if !active {
				target := fast.NextEvent()
				if next < len(traffic) && due < target {
					target = max(due, now+1)
				}
				fast.SkipTo(target)
			}
		}
		if want := ref.tick(now); got != want {
			t.Fatalf("cycle %d: %d completions, reference %d", now, got, want)
		}
		if got, want := commandCounts(fast), commandCounts(ref.m); got != want {
			t.Fatalf("cycle %d: ACT/PRE/REF/RD/WR/hit counts %v, reference %v", now, got, want)
		}
		now++
		if now > limit {
			t.Fatalf("traffic did not drain within %d cycles", limit)
		}
	}
	for i := range fastT {
		if f, r := fastT[i], refT[i]; f.Done != r.Done || f.RowHit != r.RowHit {
			t.Fatalf("txn %d %+v: Done %d RowHit %v, reference Done %d RowHit %v",
				i, f.Loc, f.Done, f.RowHit, r.Done, r.RowHit)
		}
	}
	for c := range fast.channels {
		f, r := fast.ChannelStats(c), ref.m.ChannelStats(c)
		if f.BusBusy.Value() != r.BusBusy.Value() || f.RowMisses.Value() != r.RowMisses.Value() {
			t.Fatalf("channel %d: bus-busy %d row misses %d, reference %d and %d", c,
				f.BusBusy.Value(), f.RowMisses.Value(), r.BusBusy.Value(), r.RowMisses.Value())
		}
	}
	for i, c := range checkers {
		if !c.Ok() {
			t.Fatalf("checker %d: %d protocol violations, first: %s", i, len(c.Violations), c.Violations[0])
		}
	}
}

// idleGap returns the cycles before the next arrival: mostly back to back
// or a few cycles apart, occasionally a 200–3,200-cycle idle stretch long
// enough for the fast side's idle skip to engage and cross refreshes.
func idleGap(rng *rand.Rand) uint64 {
	switch n := rng.Intn(400); {
	case n == 0:
		return 200 + uint64(rng.Intn(3001))
	case n < 240:
		return 0
	default:
		return uint64(rng.Intn(8))
	}
}

// randomTraffic draws uniformly random locations; rows come from a small
// range so row hits and conflicts both occur.
func randomTraffic(rng *rand.Rand, g addrmap.Geometry, n int) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{gap: idleGap(rng), write: rng.Intn(100) < 40, loc: addrmap.Location{
			Channel: rng.Intn(g.Channels), Rank: rng.Intn(g.RanksPerChan), Bank: rng.Intn(g.BanksPerRank),
			Row: rng.Intn(min(16, g.RowsPerBank)), Column: rng.Intn(g.ColumnsPerRow),
		}}
	}
	return out
}

// blockTraffic maps physical blocks through p: sequential runs of up to 64
// blocks mixed with random blocks, which give the long row-hit runs random
// locations rarely do.
func blockTraffic(rng *rand.Rand, p addrmap.Policy, n int) []arrival {
	const span = 1 << 20 // blocks (64 MiB) the stream draws from
	out := make([]arrival, 0, n)
	for len(out) < n {
		base, run := uint64(rng.Intn(span)), 1
		if rng.Intn(2) == 0 {
			run = 1 + rng.Intn(64)
		}
		write := rng.Intn(100) < 30
		for i := 0; i < run && len(out) < n; i++ {
			out = append(out, arrival{gap: idleGap(rng), write: write, loc: p.Map(base + uint64(i))})
		}
	}
	return out
}

func TestSchedulerMatchesReference(t *testing.T) {
	const n = 20_000
	small := Config{
		Geom:  addrmap.Geometry{Channels: 1, RanksPerChan: 4, BanksPerRank: 4, RowsPerBank: 32, ColumnsPerRow: 16},
		ReadQ: 16, WriteQ: 16, HighWM: 12, LowWM: 4,
	}
	table3 := DefaultConfig(2)
	// More than 16 ranks and 64 banks per channel, with a bank count that is
	// not a multiple of 64, at the Table III queue sizes.
	wide := Config{
		Geom:  addrmap.Geometry{Channels: 1, RanksPerChan: 20, BanksPerRank: 4, RowsPerBank: 32, ColumnsPerRow: 16},
		ReadQ: 48, WriteQ: 48, HighWM: 40, LowWM: 20,
	}
	type source struct {
		name    string
		cfg     Config
		traffic func(*rand.Rand) []arrival
	}
	sources := []source{
		{"random-4x4", small, func(rng *rand.Rand) []arrival { return randomTraffic(rng, small.Geom, n) }},
		{"random-table3", table3, func(rng *rand.Rand) []arrival { return randomTraffic(rng, table3.Geom, n) }},
	}
	for _, name := range addrmap.Names() {
		p, err := addrmap.ByName(name, table3.Geom)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{"blocks-" + name, table3,
			func(rng *rand.Rand) []arrival { return blockTraffic(rng, p, n) }})
	}
	sources = append(sources, source{"random-20x4", wide,
		func(rng *rand.Rand) []arrival { return randomTraffic(rng, wide.Geom, n) }})
	for _, tm := range []struct {
		name   string
		timing Timing
	}{{"ddr3", DDR3_1600()}, {"ddr4", DDR4_2400()}} {
		for i, src := range sources {
			cfg := src.cfg
			cfg.Timing = tm.timing
			t.Run(tm.name+"/"+src.name, func(t *testing.T) {
				runDifferential(t, cfg, src.traffic(rand.New(rand.NewSource(int64(7+i)))))
			})
		}
	}
}

// FuzzSchedulerMatchesReference runs the differential check on fuzzed
// traffic over a 4-rank × 4-bank channel with 16/16 queues. Every 4 input
// bytes are one transaction: direction, rank and bank; a row from a small
// range, so hits and conflicts both occur; a column; and an idle gap,
// rarely a long one that crosses refreshes.
func FuzzSchedulerMatchesReference(f *testing.F) {
	cfg := Config{
		Timing: DDR3_1600(),
		Geom:   addrmap.Geometry{Channels: 1, RanksPerChan: 4, BanksPerRank: 4, RowsPerBank: 32, ColumnsPerRow: 16},
		ReadQ:  16, WriteQ: 16, HighWM: 12, LowWM: 4,
	}
	// Eight reads ping-ponging between rows 0 and 1 of one bank.
	var pingPong []byte
	for i := 0; i < 8; i++ {
		pingPong = append(pingPong, 0, byte(i%2), byte(i), 0)
	}
	f.Add(pingPong)
	// A write burst past HighWM, then reads that must wait out the drain.
	var burst []byte
	for i := 0; i < 14; i++ {
		burst = append(burst, 1|byte(i%4)<<1|byte(i%3)<<3, byte(i%3), byte(i), 0)
	}
	for i := 0; i < 4; i++ {
		burst = append(burst, byte(i)<<1, 2, byte(i), 1)
	}
	f.Add(burst)
	// A stream into rank 0 that straddles its first refresh (tREFI/5).
	straddle := []byte{0, 0, 0, 0xF2}
	for i := 0; i < 24; i++ {
		straddle = append(straddle, byte(i%2)|byte(i%4)<<3, byte(i%3), byte(i), 5)
	}
	f.Add(straddle)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*4096 {
			data = data[:4*4096]
		}
		traffic := make([]arrival, 0, len(data)/4)
		for i := 0; i+4 <= len(data); i += 4 {
			b := data[i : i+4]
			gap := uint64(b[3] & 7)
			if b[3] >= 0xF0 {
				gap = uint64(b[3]-0xEF) * 400
			}
			traffic = append(traffic, arrival{gap: gap, write: b[0]&1 != 0, loc: addrmap.Location{
				Rank: int(b[0]>>1) & 3, Bank: int(b[0]>>3) & 3, Row: int(b[1]) & 3, Column: int(b[2]) & 15,
			}})
		}
		runDifferential(t, cfg, traffic)
	})
}
