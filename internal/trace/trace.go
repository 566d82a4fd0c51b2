// Package trace defines the memory-trace record format exchanged between
// workload generators, trace files, and the CPU model. A record represents
// one post-LLC memory operation (an LLC miss or write-back, as produced by
// the paper's Pin+8MB-LLC filtering) preceded by a number of non-memory
// instructions.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/mem"
)

// Record is one memory operation of a trace.
type Record struct {
	// Gap is the number of non-memory instructions retired before this
	// operation.
	Gap uint32
	// Type is the access type (read fill or write-back).
	Type mem.AccessType
	// VAddr is the virtual block-aligned address.
	VAddr mem.VirtAddr
}

// Source produces trace records. Implementations may be infinite (synthetic
// generators); callers decide how many operations to consume.
type Source interface {
	// Next returns the next record; ok is false when the source is
	// exhausted.
	Next() (r Record, ok bool)
}

// SliceSource replays records from memory.
type SliceSource struct {
	recs []Record
	pos  int
}

// NewSliceSource returns a Source over recs.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// recordSize is the on-disk encoding size: gap(4) type(1) pad(3) vaddr(8).
const recordSize = 16

// Writer encodes records to a binary stream.
type Writer struct {
	w   *bufio.Writer
	buf [recordSize]byte
	n   uint64
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write appends one record.
func (w *Writer) Write(r Record) error {
	binary.LittleEndian.PutUint32(w.buf[0:], r.Gap)
	w.buf[4] = byte(r.Type)
	w.buf[5], w.buf[6], w.buf[7] = 0, 0, 0
	binary.LittleEndian.PutUint64(w.buf[8:], uint64(r.VAddr))
	if _, err := w.w.Write(w.buf[:]); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.n }

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes records from a binary stream; it implements Source.
type Reader struct {
	r   *bufio.Reader
	buf [recordSize]byte
	err error
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Next implements Source. After exhaustion or error, ok stays false; a
// non-EOF error is available via Err. A stream must end on a record
// boundary, and a record's type must be a valid access type and its pad
// bytes zero (as Writer writes them); anything else is a decoding error,
// so a truncated or corrupt file cannot pass for a shorter valid one.
func (r *Reader) Next() (Record, bool) {
	if r.err != nil {
		return Record{}, false
	}
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("trace: truncated record: %w", err)
		}
		r.err = err
		return Record{}, false
	}
	rec := Record{
		Gap:   binary.LittleEndian.Uint32(r.buf[0:]),
		Type:  mem.AccessType(r.buf[4]),
		VAddr: mem.VirtAddr(binary.LittleEndian.Uint64(r.buf[8:])),
	}
	if rec.Type != mem.Read && rec.Type != mem.Write {
		r.err = fmt.Errorf("trace: corrupt record type %d", r.buf[4])
		return Record{}, false
	}
	if r.buf[5]|r.buf[6]|r.buf[7] != 0 {
		r.err = fmt.Errorf("trace: corrupt record: nonzero pad bytes % x", r.buf[5:8])
		return Record{}, false
	}
	return rec, true
}

// Err returns the first non-EOF decoding error, if any.
func (r *Reader) Err() error {
	if r.err == io.EOF {
		return nil
	}
	return r.err
}

// Limit wraps src, yielding at most n records.
func Limit(src Source, n uint64) Source { return &limited{src: src, left: n} }

type limited struct {
	src  Source
	left uint64
}

func (l *limited) Next() (Record, bool) {
	if l.left == 0 {
		return Record{}, false
	}
	r, ok := l.src.Next()
	if ok {
		l.left--
	}
	return r, ok
}
