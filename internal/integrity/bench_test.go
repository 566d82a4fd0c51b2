package integrity

import (
	"testing"

	"repro/internal/mac"
	"repro/internal/mem"
)

func BenchmarkTreeWalk(b *testing.B) {
	tr := NewTree(VAULT(), 1<<30, 0)
	var scratch []mem.PhysAddr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = tr.Walk(uint64(i)%(1<<30), scratch[:0])
	}
	_ = scratch
}

func BenchmarkCounterWrite(b *testing.B) {
	s := NewCounterStore(SYN128())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(uint64(i) % 4096)
	}
}

func BenchmarkVerifiedWrite(b *testing.B) {
	vm := NewVerifiedMemory(ITESP(), 1<<16, mac.Key{K0: 1}, mac.Key{K0: 2})
	var data [mem.BlockSize]byte
	b.SetBytes(mem.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[0] = byte(i)
		vm.Write(uint64(i)%(1<<16), data)
	}
}

func BenchmarkVerifiedRead(b *testing.B) {
	vm := NewVerifiedMemory(ITESP(), 1<<12, mac.Key{K0: 1}, mac.Key{K0: 2})
	var data [mem.BlockSize]byte
	for i := uint64(0); i < 1<<12; i++ {
		vm.Write(i, data)
	}
	b.SetBytes(mem.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Read(uint64(i) % (1 << 12)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCounterStoreWrite measures the counter write path (leaf lookup +
// local increment) — zero allocations at steady state.
func BenchmarkCounterStoreWrite(b *testing.B) {
	s := NewCounterStore(ITESP128())
	for i := 0; i < 1<<16; i++ {
		s.Write(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(uint64(i) & (1<<16 - 1))
	}
}

// BenchmarkMorphableStoreWrite measures the bit-exact morphable counter
// write path.
func BenchmarkMorphableStoreWrite(b *testing.B) {
	s := NewMorphableStore(ITESP128())
	for i := 0; i < 1<<16; i++ {
		s.Write(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(uint64(i) & (1<<16 - 1))
	}
}
