package main

import (
	"bufio"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// layers are the host_share buckets, in report order.
var layers = []string{
	"dram", "sim", "cpu", "core", "integrity", "cache", "addrmap", "enclave",
	"workload", "runner", "runspec", "farm", "obs", "other",
}

// pkgLayer maps a package below repro/internal/ to the layer its CPU time
// is charged to. Packages mapped to "" hold shared value types (counters,
// addresses) and, like the standard library, count for the repo frame
// that called them. A repo package missing here is charged to "other".
var pkgLayer = map[string]string{
	"dram": "dram", "sim": "sim", "cpu": "cpu", "core": "core",
	"integrity": "integrity", "cache": "cache", "addrmap": "addrmap",
	"enclave": "enclave", "workload": "workload", "runner": "runner",
	"runspec": "runspec", "farm": "farm", "obs": "obs",
	// The figure functions sit directly on the runner.
	"experiments": "runner",
	"farm/api":    "farm", "farm/devtls": "farm",
	"obs/sweep": "obs",
	// Helpers of the secure-memory engine.
	"mac": "core", "encrypt": "core", "parity": "core", "fault": "core",
	// The LLC filter sits between the cores and the engine; trace records
	// are the workload generators' output format; energy is computed by sim.
	"llc": "cpu", "trace": "workload", "energy": "sim",
	"stats": "", "mem": "",
}

const repoPrefix = "repro/internal/"

// harness is the bucket for the benchmark's own frames (package main):
// the request wrapper, the span recorder and the hooks. Its samples are
// kept out of the total, so the layer shares are of the program's time.
const harness = "harness"

// frameLayer returns the layer a stack frame is charged to, or ok=false
// when the frame is not a repo frame (or is a pass-through package) and
// the sample should be charged further up the stack.
func frameLayer(fn string) (layer string, ok bool) {
	if strings.HasPrefix(fn, "main.") {
		return harness, true
	}
	if !strings.HasPrefix(fn, repoPrefix) {
		return "", false
	}
	rest := strings.TrimPrefix(fn, repoPrefix)
	if i := strings.IndexByte(rest, '['); i >= 0 {
		rest = rest[:i] // type arguments may name other packages
	}
	pkg := rest
	if slash := strings.LastIndex(rest, "/"); slash >= 0 {
		if dot := strings.Index(rest[slash:], "."); dot >= 0 {
			pkg = rest[:slash+dot]
		}
	} else if dot := strings.Index(rest, "."); dot >= 0 {
		pkg = rest[:dot]
	}
	l, known := pkgLayer[pkg]
	switch {
	case !known:
		return "other", true
	case l == "":
		return "", false
	}
	return l, true
}

// attribution is a CPU profile's time per layer. total is the program's
// time, the sum over layers; the harness's own time is kept apart.
type attribution struct {
	total, harness time.Duration
	by             map[string]time.Duration
}

func (a attribution) share(layer string) float64 {
	if a.total <= 0 {
		return 0
	}
	return float64(a.by[layer]) / float64(a.total)
}

// attribute parses `go tool pprof -traces` output. Each sample stack is
// listed innermost frame first, under a separator line, with the sample's
// value on the first frame's line. The sample is charged to the innermost
// frame frameLayer accepts; stacks with none go to "other".
func attribute(traces string) (attribution, error) {
	a := attribution{by: map[string]time.Duration{}}
	var val time.Duration
	charged, inStack := false, false
	charge := func(l string) {
		if l == harness {
			a.harness += val
		} else {
			a.by[l] += val
			a.total += val
		}
		charged = true
	}
	flush := func() {
		if inStack && !charged {
			charge("other")
		}
		inStack, charged = false, false
	}
	sc := bufio.NewScanner(strings.NewReader(traces))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		if !strings.HasPrefix(line, " ") {
			continue // header lines: File, Type, Time, Duration
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[0]
		if !inStack {
			d, err := time.ParseDuration(fields[0]) // "10ms", "1.20s"
			if err != nil || len(fields) < 2 {
				return a, fmt.Errorf("pprof -traces: unexpected stack head %q", line)
			}
			val, frame, inStack = d, fields[1], true
		}
		if charged {
			continue
		}
		if l, ok := frameLayer(frame); ok {
			charge(l)
		}
	}
	flush()
	return a, sc.Err()
}

// pprofTraces runs the toolchain's pprof on a CPU profile.
func pprofTraces(profile string) (string, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	out, err := exec.Command(goBin, "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return "", fmt.Errorf("go tool pprof: %v: %s", err, ee.Stderr)
		}
		return "", fmt.Errorf("go tool pprof: %w", err)
	}
	return string(out), nil
}
