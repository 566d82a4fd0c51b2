package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestExitCode pins the documented process exit codes for each error
// class, including errors wrapped the way sim.RunContext and the runner
// actually produce them.
func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, 0},
		{"deadlock", fmt.Errorf("%w at cycle 42 (pending=7)", sim.ErrDeadlock), 3},
		{"drain stall", fmt.Errorf("%w after 2000001 idle cycles at cycle 9 (pending=1)", sim.ErrDrainStall), 3},
		{"canceled", fmt.Errorf("%w at cycle 7: %w", sim.ErrCanceled, context.Canceled), 130},
		{"deadline", fmt.Errorf("%w at cycle 7: %w", sim.ErrCanceled, context.DeadlineExceeded), 130},
		{"joined deadlock", errors.Join(fmt.Errorf("mcf: %w", sim.ErrDeadlock)), 3},
		{"spec error", errors.New("runspec: scheme is required"), 1},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("%s: exitCode = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestTraceErrNamesFile checks that a truncated trace file is reported as an
// error naming the file once its reader has been drained, and that an intact
// one is not.
func TestTraceErrNamesFile(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	w.Write(trace.Record{Type: mem.Read, VAddr: 64})
	w.Write(trace.Record{Type: mem.Write, VAddr: 128})
	w.Flush()
	whole := trace.NewReader(bytes.NewReader(buf.Bytes()))
	cut := trace.NewReader(bytes.NewReader(buf.Bytes()[:24]))
	for _, r := range []*trace.Reader{whole, cut} {
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
	}
	if err := traceErr([]string{"a.trc"}, []*trace.Reader{whole}); err != nil {
		t.Fatalf("intact trace: %v", err)
	}
	err := traceErr([]string{"a.trc", "b.trc"}, []*trace.Reader{whole, cut})
	if err == nil || !strings.Contains(err.Error(), "b.trc") {
		t.Fatalf("truncated trace: got %v, want an error naming b.trc", err)
	}
}
