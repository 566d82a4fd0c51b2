// Package cache implements the generic set-associative write-back cache used
// for every on-chip metadata structure in the paper: the counter/tree
// metadata cache (shared or partitioned per enclave), the separate MAC cache
// of the VAULT baseline, and the parity cache (a coalescing write buffer
// whose dirty state is one bit per line: an evicted dirty line goes back to
// DRAM as one whole-line write).
//
// The cache stores line addresses only; functional payloads, when needed,
// live in the per-line Aux word managed by the caller.
package cache

import (
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Config describes a cache organization.
type Config struct {
	// SizeBytes is the total capacity in bytes.
	SizeBytes int
	// LineBytes is the line size in bytes (64 for all caches in the paper).
	LineBytes int
	// Ways is the associativity.
	Ways int
	// Partitions is the number of equal set-level partitions. 1 models the
	// shared metadata cache of the baselines; >1 models the per-enclave
	// isolated caches of ITESP (Section III-A).
	Partitions int
}

// DefaultMetadata returns the paper's default metadata-cache organization:
// sizeKB kilobytes, 64-byte lines, 8-way, with the given partition count.
func DefaultMetadata(sizeKB, partitions int) Config {
	return Config{SizeBytes: sizeKB * 1024, LineBytes: 64, Ways: 8, Partitions: partitions}
}

// Line is one cache line's bookkeeping state.
type Line struct {
	Addr  uint64 // line-aligned address (tag+index)
	Valid bool
	Dirty bool
	// Aux is caller-managed per-line state (e.g. the parity diff state of a
	// shared-parity cache entry).
	Aux uint64
	// hits counts lookups that hit this line since fill (Fig 2 metric).
	hits uint64
	// lru is the last-access timestamp for LRU replacement.
	lru uint64
}

// Eviction describes a line displaced by an insertion.
type Eviction struct {
	Line     Line
	Occurred bool
}

// Stats aggregates cache events.
type Stats struct {
	Hits        stats.Counter
	Misses      stats.Counter
	DirtyEvicts stats.Counter
	CleanEvicts stats.Counter
	// UsePerBlock observes, at eviction (or flush), how many hits each line
	// received while resident — the "metadata block utilization" of Fig 2.
	UsePerBlock stats.Mean
}

// HitRate returns hits / (hits+misses).
func (s *Stats) HitRate() float64 {
	total := s.Hits.Value() + s.Misses.Value()
	if total == 0 {
		return 0
	}
	return float64(s.Hits.Value()) / float64(total)
}

// Cache is a set-associative write-back cache with true-LRU replacement.
type Cache struct {
	cfg         Config
	sets        [][]Line // [set][way]
	setsPerPart int
	lineShift   uint
	tick        uint64
	Stats       Stats
	// PartStats tracks per-partition hit/miss ratios for the isolation
	// experiments.
	PartStats []stats.Ratio
}

// New builds a cache from cfg. It panics on a non-power-of-two or
// inconsistent geometry, which indicates a programming error in the caller.
func New(cfg Config) *Cache {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", cfg.LineBytes))
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines == 0 || cfg.Ways <= 0 || lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry size=%dB line=%dB ways=%d", cfg.SizeBytes, cfg.LineBytes, cfg.Ways))
	}
	nsets := lines / cfg.Ways
	if nsets%cfg.Partitions != 0 {
		panic(fmt.Sprintf("cache: %d sets not divisible by %d partitions", nsets, cfg.Partitions))
	}
	c := &Cache{
		cfg:         cfg,
		sets:        make([][]Line, nsets),
		setsPerPart: nsets / cfg.Partitions,
		PartStats:   make([]stats.Ratio, cfg.Partitions),
	}
	for i := range c.sets {
		c.sets[i] = make([]Line, cfg.Ways)
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// lineAddr aligns addr to the cache line.
func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.lineShift << c.lineShift }

// setIndex maps a line address and partition to a set.
func (c *Cache) setIndex(addr uint64, part int) int {
	if part < 0 || part >= c.cfg.Partitions {
		part = 0
	}
	return part*c.setsPerPart + int((addr>>c.lineShift)%uint64(c.setsPerPart))
}

// Contains reports whether addr is resident, without updating LRU or stats.
func (c *Cache) Contains(addr uint64, part int) bool {
	la := c.lineAddr(addr)
	set := c.sets[c.setIndex(la, part)]
	for i := range set {
		if set[i].Valid && set[i].Addr == la {
			return true
		}
	}
	return false
}

// Lookup probes the cache. On a hit it updates LRU, increments the line's
// use count, optionally marks the line dirty, and returns the line. Stats
// are recorded either way.
func (c *Cache) Lookup(addr uint64, part int, markDirty bool) (*Line, bool) {
	c.tick++
	la := c.lineAddr(addr)
	set := c.sets[c.setIndex(la, part)]
	for i := range set {
		if set[i].Valid && set[i].Addr == la {
			set[i].lru = c.tick
			set[i].hits++
			if markDirty {
				set[i].Dirty = true
			}
			c.Stats.Hits.Inc()
			c.PartStats[c.clampPart(part)].Observe(true)
			return &set[i], true
		}
	}
	c.Stats.Misses.Inc()
	c.PartStats[c.clampPart(part)].Observe(false)
	return nil, false
}

func (c *Cache) clampPart(part int) int {
	if part < 0 || part >= c.cfg.Partitions {
		return 0
	}
	return part
}

// Insert fills addr into the cache (after a miss) and returns the displaced
// line, if any. The new line starts with zero hits; dirty indicates whether
// the fill is already modified (e.g. a write allocate).
func (c *Cache) Insert(addr uint64, part int, dirty bool) Eviction {
	return c.InsertAux(addr, part, dirty, 0)
}

// InsertAux is Insert with an initial caller-managed Aux word (e.g. the
// tree level of a metadata line, consulted at eviction to classify the
// write-back).
func (c *Cache) InsertAux(addr uint64, part int, dirty bool, aux uint64) Eviction {
	c.tick++
	la := c.lineAddr(addr)
	si := c.setIndex(la, part)
	set := c.sets[si]
	// Reuse an existing copy (should not normally happen after a miss, but
	// keeps the cache coherent if the caller double-inserts).
	for i := range set {
		if set[i].Valid && set[i].Addr == la {
			set[i].lru = c.tick
			if dirty {
				set[i].Dirty = true
			}
			set[i].Aux = aux
			return Eviction{}
		}
	}
	victim := 0
	for i := range set {
		if !set[i].Valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	var ev Eviction
	if set[victim].Valid {
		ev = Eviction{Line: set[victim], Occurred: true}
		c.Stats.UsePerBlock.Observe(float64(set[victim].hits))
		if set[victim].Dirty {
			c.Stats.DirtyEvicts.Inc()
		} else {
			c.Stats.CleanEvicts.Inc()
		}
	}
	set[victim] = Line{Addr: la, Valid: true, Dirty: dirty, Aux: aux, lru: c.tick}
	return ev
}

// Invalidate removes addr if resident and returns its prior state; dirty
// victims are the caller's responsibility to write back.
func (c *Cache) Invalidate(addr uint64, part int) (Line, bool) {
	la := c.lineAddr(addr)
	set := c.sets[c.setIndex(la, part)]
	for i := range set {
		if set[i].Valid && set[i].Addr == la {
			old := set[i]
			c.Stats.UsePerBlock.Observe(float64(set[i].hits))
			set[i] = Line{}
			return old, true
		}
	}
	return Line{}, false
}

// FlushAll invalidates every line and returns the dirty ones so the caller
// can write them back. Use counts of all valid lines are recorded.
func (c *Cache) FlushAll() []Line {
	var dirty []Line
	for si := range c.sets {
		for wi := range c.sets[si] {
			l := &c.sets[si][wi]
			if !l.Valid {
				continue
			}
			c.Stats.UsePerBlock.Observe(float64(l.hits))
			if l.Dirty {
				dirty = append(dirty, *l)
			}
			*l = Line{}
		}
	}
	return dirty
}

// MeanUseIncludingResident returns the mean hits-per-block over both
// evicted lines (recorded in Stats.UsePerBlock) and currently resident
// lines. Short runs evict few lines, so the eviction-only metric is biased
// toward early cold blocks; this variant is what the Fig 2 utilization
// study reports.
func (c *Cache) MeanUseIncludingResident() float64 {
	sum := c.Stats.UsePerBlock.Sum()
	n := float64(c.Stats.UsePerBlock.Count())
	for si := range c.sets {
		for wi := range c.sets[si] {
			if l := &c.sets[si][wi]; l.Valid {
				sum += float64(l.hits)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for si := range c.sets {
		for wi := range c.sets[si] {
			if c.sets[si][wi].Valid {
				n++
			}
		}
	}
	return n
}

// NumLines returns the total line capacity.
func (c *Cache) NumLines() int { return len(c.sets) * c.cfg.Ways }

// Register exposes the cache's stats in an observability registry under
// the given labels (typically {"cache": "meta"|"mac"|"parity"|"llc"}).
// Partitioned caches additionally expose per-partition hit rates.
func (c *Cache) Register(reg *obs.Registry, labels obs.Labels) {
	if reg == nil {
		return
	}
	reg.Counter("cache_hits_total", labels, &c.Stats.Hits)
	reg.Counter("cache_misses_total", labels, &c.Stats.Misses)
	reg.Counter("cache_dirty_evicts_total", labels, &c.Stats.DirtyEvicts)
	reg.Counter("cache_clean_evicts_total", labels, &c.Stats.CleanEvicts)
	reg.Gauge("cache_hit_rate", labels, c.Stats.HitRate)
	reg.Gauge("cache_use_per_block_mean", labels, c.MeanUseIncludingResident)
	reg.Gauge("cache_occupancy_lines", labels, func() float64 { return float64(c.Occupancy()) })
	if c.cfg.Partitions > 1 {
		for p := 0; p < c.cfg.Partitions; p++ {
			pl := make(obs.Labels, len(labels)+1)
			for k, v := range labels {
				pl[k] = v
			}
			pl["partition"] = strconv.Itoa(p)
			r := &c.PartStats[p]
			reg.Gauge("cache_partition_hit_rate", pl, r.Value)
		}
	}
}
