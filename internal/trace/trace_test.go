package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestRoundTrip(t *testing.T) {
	recs := []Record{
		{Gap: 0, Type: mem.Read, VAddr: 0x1000},
		{Gap: 42, Type: mem.Write, VAddr: 0xdeadbeef},
		{Gap: 1 << 20, Type: mem.Read, VAddr: 1 << 47},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d, want 3", w.Count())
	}
	if buf.Len() != 3*16 {
		t.Fatalf("encoded size = %d, want 48", buf.Len())
	}
	r := NewReader(&buf)
	for i, want := range recs {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("record %d missing", i)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("reader should be exhausted")
	}
	if r.Err() != nil {
		t.Fatalf("EOF is not an error: %v", r.Err())
	}
}

func TestReaderDetectsCorruptType(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Record{Type: mem.Read})
	w.Flush()
	data := buf.Bytes()
	data[4] = 7 // invalid AccessType
	r := NewReader(bytes.NewReader(data))
	if _, ok := r.Next(); ok {
		t.Fatal("corrupt record should not decode")
	}
	if r.Err() == nil {
		t.Fatal("corrupt record should surface an error")
	}
}

// TestReaderTruncated checks that a partial trailing record is an error:
// a truncated file must not read as a shorter valid trace.
func TestReaderTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Record{Type: mem.Read, VAddr: 1})
	w.Write(Record{Type: mem.Write, VAddr: 2})
	w.Flush()
	r := NewReader(bytes.NewReader(buf.Bytes()[:recordSize+10]))
	if got, ok := r.Next(); !ok || got.VAddr != 1 {
		t.Fatalf("first record = %+v, %v; want VAddr 1", got, ok)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("truncated record should not decode")
	}
	if r.Err() == nil {
		t.Fatal("truncated record read as a clean end of trace")
	}
}

func TestReaderDetectsNonzeroPad(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Record{Type: mem.Write, VAddr: 64})
	w.Flush()
	data := buf.Bytes()
	data[6] = 1
	r := NewReader(bytes.NewReader(data))
	if _, ok := r.Next(); ok {
		t.Fatal("record with a nonzero pad byte should not decode")
	}
	if r.Err() == nil {
		t.Fatal("nonzero pad byte should surface an error")
	}
}

// FuzzReader checks that every input either sets Err or decodes to records
// that Writer re-encodes to exactly the input bytes.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Record{Gap: 3, Type: mem.Read, VAddr: 0x1000})
	w.Write(Record{Gap: 1 << 20, Type: mem.Write, VAddr: 1 << 47})
	w.Flush()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:recordSize+5])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var recs []Record
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			recs = append(recs, rec)
		}
		if r.Err() != nil {
			return
		}
		var out bytes.Buffer
		w := NewWriter(&out)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("decoded %d records without error, but they re-encode to %x, not the input %x", len(recs), out.Bytes(), data)
		}
	})
}

func TestSliceSource(t *testing.T) {
	s := NewSliceSource([]Record{{VAddr: 1}, {VAddr: 2}})
	a, _ := s.Next()
	b, _ := s.Next()
	if _, ok := s.Next(); ok || a.VAddr != 1 || b.VAddr != 2 {
		t.Fatal("slice source order/exhaustion wrong")
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r.VAddr != 1 {
		t.Fatal("reset should rewind")
	}
}

func TestLimit(t *testing.T) {
	s := NewSliceSource([]Record{{VAddr: 1}, {VAddr: 2}, {VAddr: 3}})
	l := Limit(s, 2)
	n := 0
	for {
		if _, ok := l.Next(); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("limit yielded %d records, want 2", n)
	}
}

func TestLimitZero(t *testing.T) {
	l := Limit(NewSliceSource([]Record{{VAddr: 1}}), 0)
	if _, ok := l.Next(); ok {
		t.Fatal("zero limit should yield nothing")
	}
}

// Property: encode/decode round-trips arbitrary records.
func TestRoundTripProperty(t *testing.T) {
	f := func(gap uint32, isWrite bool, vaddr uint64) bool {
		rec := Record{Gap: gap, Type: mem.Read, VAddr: mem.VirtAddr(vaddr)}
		if isWrite {
			rec.Type = mem.Write
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(rec); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewReader(&buf)
		got, ok := r.Next()
		return ok && got == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
