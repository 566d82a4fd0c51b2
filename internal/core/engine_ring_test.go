package core

import (
	"testing"

	"repro/internal/addrmap"
	"repro/internal/dram"
	"repro/internal/mem"
)

// TestSpillRingOrder pushes far more transactions than the DRAM queue can
// absorb, forcing spills across several ring growths, then drains them
// through Engine.Tick and checks that completions arrive in issue order.
// The DRAM model under FRFCFS can reorder within its queue, so the test
// uses a serializing single-bank row-hit stream where FRFCFS degenerates
// to FCFS. Each transaction carries an access group, so Tick's tokens give
// the completion order.
func TestSpillRingOrder(t *testing.T) {
	geom := addrmap.DefaultGeometry(1)
	pol, err := addrmap.ByName("rank", geom)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{cfg: Config{Policy: pol}, mem: dram.New(dram.DefaultConfig(1))}

	const n = 300 // DRAM read queue default is far smaller, so most spill
	for i := 0; i < n; i++ {
		txn := e.newTxn()
		*txn = dram.Txn{
			Op:      mem.Op{Type: mem.Read, Kind: mem.KindData, Addr: mem.PhysAddr(i)},
			Loc:     addrmap.Location{Column: i % geom.ColumnsPerRow},
			GroupID: e.allocGroup(uint64(i)<<tokenCoreBits, 0),
		}
		e.push(txn)
	}
	if e.spillLen == 0 {
		t.Fatal("expected spill: DRAM queue absorbed all transactions")
	}

	var got []uint64
	for cycle := 0; cycle < 1_000_000 && len(got) < n; cycle++ {
		got, _ = e.Tick(got)
	}
	if len(got) != n {
		t.Fatalf("only %d/%d transactions completed", len(got), n)
	}
	for i, tok := range got {
		if tok>>tokenCoreBits != uint64(i) {
			t.Fatalf("completion %d: transaction %d (issue order violated)", i, tok>>tokenCoreBits)
		}
	}
	if e.spillLen != 0 || e.Pending() != 0 {
		t.Fatalf("%d spilled, %d pending after the drain", e.spillLen, e.Pending())
	}
}

// TestSpillRingGrowth checks the ring re-linearizes correctly when it grows
// while head is mid-buffer (wrapped entries must keep their order).
func TestSpillRingGrowth(t *testing.T) {
	e := &Engine{}
	// Seed a small ring and advance head so entries wrap.
	e.spill = make([]*dram.Txn, 4)
	e.spillHead = 3
	mk := func(i int) *dram.Txn {
		return &dram.Txn{Op: mem.Op{Addr: mem.PhysAddr(i)}}
	}
	for i := 0; i < 3; i++ {
		e.spill[(e.spillHead+i)&3] = mk(i)
	}
	e.spillLen = 3
	// Fill past capacity twice to force two growths.
	for i := 3; i < 20; i++ {
		if e.spillLen == len(e.spill) {
			e.growSpill()
		}
		e.spill[(e.spillHead+e.spillLen)&(len(e.spill)-1)] = mk(i)
		e.spillLen++
	}
	for i := 0; i < 20; i++ {
		txn := e.spill[(e.spillHead+i)&(len(e.spill)-1)]
		if txn.Op.Addr != mem.PhysAddr(i) {
			t.Fatalf("slot %d: addr %d, want %d", i, txn.Op.Addr, i)
		}
	}
}

// TestTokenEncodesCore checks the token layout contract: TokenCore recovers
// the issuing core, and tokens from different cores never collide.
func TestTokenEncodesCore(t *testing.T) {
	r := newRig(t, mustScheme(t, "nonsecure", 4), "rank", 4)
	seen := map[uint64]bool{}
	for core := 0; core < 4; core++ {
		for i := 0; i < 8; i++ {
			tok := r.access(t, core, mem.Read, mem.VirtAddr(i*64))
			if tok == 0 {
				t.Fatal("read returned zero token")
			}
			if TokenCore(tok) != core {
				t.Fatalf("TokenCore(%#x) = %d, want %d", tok, TokenCore(tok), core)
			}
			if seen[tok] {
				t.Fatalf("token %#x issued twice", tok)
			}
			seen[tok] = true
		}
	}
}
