package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Config describes one deterministic fault-injection campaign. The zero
// value means "no campaign": every layer treats Enabled() == false as the
// complete absence of the fault subsystem, so fault-free runs are
// bit-identical to builds that predate it.
//
// All cycle quantities are DRAM cycles (the security engine's tick domain).
// Every field is optional except N; zero selects the documented default, and
// Normalized folds defaults so equivalent campaigns hash identically in a
// runspec.Spec.
type Config struct {
	// N is the number of scheduled injection events. Zero disables the
	// campaign entirely.
	N int `json:"n,omitempty"`
	// Kind selects the physical fault model per event:
	//
	//	bit   — a single flipped bit (transient soft error)
	//	pin   — one stuck pin: one bit lane of one chip across all 8 beats
	//	chip  — full-chip (chipkill) corruption of the block's slice
	//	chip2 — two distinct chips of the same block (Table II Case 3)
	//	rank  — chip corruption replicated across RankBlocks same-rank
	//	        blocks (one block per parity group, spatially extended)
	//
	// Default "chip".
	Kind string `json:"kind,omitempty"`
	// Target picks victim blocks: "span" draws them uniformly from the
	// scrub window [0, SpanBlocks); "hot" draws from blocks recently
	// fetched by the cores, so the next demand read detects the fault.
	// Default "span".
	Target string `json:"target,omitempty"`
	// Seed drives every random choice of the campaign (event times, victim
	// blocks, chips, bits, and the functional block contents). Two runs
	// with equal Config and equal sim seeds are bit-identical.
	Seed int64 `json:"seed,omitempty"`
	// StartCycle is the DRAM cycle of the first event (default 10 000).
	StartCycle uint64 `json:"start_cycle,omitempty"`
	// Interval is the mean DRAM-cycle gap between events; actual gaps are
	// uniform in [1, 2×Interval] (default 20 000).
	Interval uint64 `json:"interval,omitempty"`
	// SpanBlocks bounds the fault and scrub domain to the first SpanBlocks
	// blocks of the data region (default 4096, clamped to the region and
	// rounded down to a whole number of parity groups).
	SpanBlocks uint64 `json:"span_blocks,omitempty"`
	// ScrubInterval is the DRAM-cycle gap between background scrub reads
	// sweeping the span (default 200). DisableScrub turns scrubbing off.
	ScrubInterval uint64 `json:"scrub_interval,omitempty"`
	DisableScrub  bool   `json:"disable_scrub,omitempty"`
	// ScrubQueueMax defers a scrub read while the target channel's read
	// queue is deeper than this, keeping scrub traffic low-priority
	// (default 8).
	ScrubQueueMax int `json:"scrub_queue_max,omitempty"`
}

// Defaults folded by Normalized and applied by the effective accessors.
const (
	defaultKind          = "chip"
	defaultTarget        = "span"
	defaultStartCycle    = 10_000
	defaultInterval      = 20_000
	defaultSpanBlocks    = 4096
	defaultScrubInterval = 200
	defaultScrubQueueMax = 8
)

// RankBlocks is the spatial extent of a "rank" fault event: the number of
// same-rank blocks (one per parity group) corrupted together.
const RankBlocks = 8

// Enabled reports whether the config describes an actual campaign.
func (c Config) Enabled() bool { return c.N > 0 }

// Effective accessors: the runtime value of each knob with defaults applied.

func (c Config) kind() string {
	if c.Kind == "" {
		return defaultKind
	}
	return c.Kind
}

func (c Config) target() string {
	if c.Target == "" {
		return defaultTarget
	}
	return c.Target
}

func (c Config) startCycle() uint64 {
	if c.StartCycle == 0 {
		return defaultStartCycle
	}
	return c.StartCycle
}

func (c Config) interval() uint64 {
	if c.Interval == 0 {
		return defaultInterval
	}
	return c.Interval
}

func (c Config) spanBlocks() uint64 {
	if c.SpanBlocks == 0 {
		return defaultSpanBlocks
	}
	return c.SpanBlocks
}

func (c Config) scrubInterval() uint64 {
	if c.ScrubInterval == 0 {
		return defaultScrubInterval
	}
	return c.ScrubInterval
}

func (c Config) scrubQueueMax() int {
	if c.ScrubQueueMax == 0 {
		return defaultScrubQueueMax
	}
	return c.ScrubQueueMax
}

// Validate rejects unknown enum values.
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	switch c.kind() {
	case "bit", "pin", "chip", "chip2", "rank":
	default:
		return fmt.Errorf("fault: unknown kind %q (want bit|pin|chip|chip2|rank)", c.Kind)
	}
	switch c.target() {
	case "span", "hot":
	default:
		return fmt.Errorf("fault: unknown target %q (want span|hot)", c.Target)
	}
	return nil
}

// Normalized returns the minimal canonical form: a disabled campaign
// collapses to the zero Config, and every knob equal to its default is
// zeroed so that an unset knob and an explicitly-set default hash the same
// way in a runspec.Spec.
func (c Config) Normalized() Config {
	if !c.Enabled() {
		return Config{}
	}
	n := c
	if n.Kind == defaultKind {
		n.Kind = ""
	}
	if n.Target == defaultTarget {
		n.Target = ""
	}
	if n.StartCycle == defaultStartCycle {
		n.StartCycle = 0
	}
	if n.Interval == defaultInterval {
		n.Interval = 0
	}
	if n.SpanBlocks == defaultSpanBlocks {
		n.SpanBlocks = 0
	}
	if n.ScrubInterval == defaultScrubInterval {
		n.ScrubInterval = 0
	}
	if n.DisableScrub {
		n.ScrubInterval = 0
		n.ScrubQueueMax = 0
	}
	if n.ScrubQueueMax == defaultScrubQueueMax {
		n.ScrubQueueMax = 0
	}
	return n
}

// ParseFlag parses the -faults command-line DSL: a comma-separated list of
// key=value entries, e.g.
//
//	-faults n=64,kind=chip,seed=7,interval=5000,span=4096,scrub=100
//
// Keys: n, kind (bit|pin|chip|chip2|rank), target (span|hot), seed, start,
// interval, span, scrub (cycles, or "off"), qmax. A bare "off" for scrub
// disables scrubbing.
func ParseFlag(s string) (Config, error) {
	var c Config
	if strings.TrimSpace(s) == "" {
		return c, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("fault: malformed entry %q (want key=value)", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		num := func() (uint64, error) {
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("fault: %s: %w", key, err)
			}
			return v, nil
		}
		// count parses a value stored in an int field, rejecting one that
		// would wrap negative.
		count := func() (int, error) {
			v, err := num()
			if err == nil && v > math.MaxInt {
				err = fmt.Errorf("fault: %s: %d is above %d", key, v, math.MaxInt)
			}
			return int(v), err
		}
		switch key {
		case "n":
			v, err := count()
			if err != nil {
				return Config{}, err
			}
			c.N = v
		case "kind":
			c.Kind = val
		case "target":
			c.Target = val
		case "seed":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("fault: seed: %w", err)
			}
			c.Seed = v
		case "start":
			v, err := num()
			if err != nil {
				return Config{}, err
			}
			c.StartCycle = v
		case "interval":
			v, err := num()
			if err != nil {
				return Config{}, err
			}
			c.Interval = v
		case "span":
			v, err := num()
			if err != nil {
				return Config{}, err
			}
			c.SpanBlocks = v
		case "scrub":
			if val == "off" {
				c.DisableScrub = true
				break
			}
			v, err := num()
			if err != nil {
				return Config{}, err
			}
			c.ScrubInterval = v
		case "qmax":
			v, err := count()
			if err != nil {
				return Config{}, err
			}
			c.ScrubQueueMax = v
		default:
			return Config{}, fmt.Errorf("fault: unknown key %q", key)
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
