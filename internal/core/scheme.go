// Package core implements the paper's contribution: the secure-memory
// engine that sits between the LLC and DRAM and, for every data read and
// write-back, generates the metadata traffic (MAC, counter, integrity-tree,
// and error-correction parity accesses) of each scheme evaluated in the
// paper — the VAULT and Synergy baselines, their isolated-tree variants,
// parity caching and sharing, and the proposed ITESP designs, plus the
// Morphable-Counter family of Figure 7.
package core

import (
	"fmt"
	"slices"

	"repro/internal/integrity"
)

// ParityMode selects how error-correction metadata is organized.
type ParityMode uint8

const (
	// ParityNone: no correction metadata traffic. Used by the non-secure
	// baseline and by VAULT, where conventional ECC travels in the 9th
	// chip of the ECC DIMM alongside the data burst.
	ParityNone ParityMode = iota
	// ParityPerBlock is baseline Synergy: a 64-bit parity per data block,
	// written to a separate region on every data write (requires DRAM
	// write masking).
	ParityPerBlock
	// ParityShared XORs the parity of Share blocks in different ranks;
	// updates need a RAID-5-style read-modify-write (Section III-C).
	ParityShared
	// ParityEmbedded stores the shared parity inside integrity-tree leaf
	// nodes: the ITESP proposal (Section III-D).
	ParityEmbedded
)

// String implements fmt.Stringer.
func (m ParityMode) String() string {
	switch m {
	case ParityNone:
		return "none"
	case ParityPerBlock:
		return "per-block"
	case ParityShared:
		return "shared"
	case ParityEmbedded:
		return "embedded"
	}
	return "unknown"
}

// Scheme is a complete secure-memory configuration.
type Scheme struct {
	Name string
	// Secure is false for the non-secure baseline (no metadata at all).
	Secure bool
	// Tree is the integrity-tree organization (ignored if !Secure).
	Tree integrity.Geometry
	// Isolated enables per-enclave trees and metadata-cache partitions
	// (Section III-A).
	Isolated bool
	// UnpartitionedCache keeps the metadata cache shared even under
	// Isolated — an ablation separating tree isolation from cache
	// partitioning (the paper notes most benefit comes from the former,
	// while partitioning is vital for leakage elimination).
	UnpartitionedCache bool
	// MACInECC places the MAC in the ECC bits of the DIMM (Synergy), so
	// reads and writes carry the MAC for free; otherwise a separate MAC
	// region and MAC cache are used (VAULT).
	MACInECC bool
	// Parity selects the error-correction organization.
	Parity ParityMode
	// ParityCached adds the coalescing parity write cache.
	ParityCached bool
	// ParityShare is the number of blocks per shared parity field (for
	// ParityShared; ParityEmbedded takes it from the tree geometry).
	ParityShare int
	// ModelOverflow accounts local-counter overflow re-encryption
	// penalties (used for the Morphable-counter studies of Fig 11).
	ModelOverflow bool

	// NoTree marks treeless authenticryption families (SERVAS): per-block
	// MACs provide integrity directly, so no integrity-tree metadata
	// exists and data accesses generate no tree-walk traffic. The json
	// omitempty tags on this and the following fields keep the canonical
	// runspec serialization — and therefore every pre-existing spec hash —
	// unchanged for schemes that do not use them.
	NoTree bool `json:",omitempty"`
	// NoMAC marks encryption-only families (TME-Box) that carry no
	// integrity MACs at all; such schemes cannot detect faults.
	NoMAC bool `json:",omitempty"`
	// KeyDomains is the number of in-process encryption-key domains of a
	// TME-Box-style multi-key scheme; the engine models a key table in
	// DRAM fronted by an on-chip key cache. Zero for single-key schemes.
	KeyDomains int `json:",omitempty"`

	// Cache capacities in KB, totals across all cores. Zero disables the
	// respective cache.
	MetaCacheKB   int
	MACCacheKB    int
	ParityCacheKB int
}

// scaled multiplies the paper's 4-core cache budget for other core counts.
func scaled(kb4core, cores int) int { return kb4core * cores / 4 }

// schemeRow is one selectable scheme: its name (the -scheme flag value), a
// one-line description for README's scheme table and `itespsim
// -list-schemes`, the experiment scheme lists it joins ("fig8", "fig11"),
// and its configuration for a core count. Each build follows the Section IV
// methodology: the total security/reliability cache budget is 16 KB per
// core, split per scheme.
type schemeRow struct {
	name, desc string
	tags       []string
	build      func(cores int) Scheme
}

// schemes is every selectable scheme in SchemeNames() order: Figure 8's,
// then the Morphable-counter configurations of Figure 11, then the
// post-paper families (SERVAS, TME-Box). Experiment harnesses and the CLIs
// derive their scheme lists from it, so append new rows, never insert.
var schemes = []schemeRow{
	{
		name: "nonsecure",
		desc: "insecure DDR baseline: no metadata traffic at all",
		build: func(cores int) Scheme {
			return Scheme{}
		},
	},
	{
		name: "mee",
		desc: "SGX-MEE-like baseline: deep 8-ary tree, separate MAC region, ECC in the 9th chip",
		build: func(cores int) Scheme {
			// Historical baseline: deep 8-ary tree, separate MAC region and
			// MAC cache, conventional ECC in the 9th chip.
			half := scaled(64, cores) / 2
			return Scheme{
				Secure: true, Tree: integrity.MEE(),
				MetaCacheKB: half, MACCacheKB: half,
			}
		},
	},
	{
		name: "vault",
		desc: "VAULT: variable-arity tree, separate MAC region/cache, conventional ECC",
		tags: []string{"fig8"},
		build: func(cores int) Scheme {
			// 32 KB counter/tree cache + 32 KB MAC cache (4-core).
			half := scaled(64, cores) / 2
			return Scheme{
				Secure: true, Tree: integrity.VAULT(),
				MetaCacheKB: half, MACCacheKB: half,
			}
		},
	},
	{
		name: "itvault",
		desc: "VAULT with per-enclave isolated trees and partitioned caches",
		tags: []string{"fig8"},
		build: func(cores int) Scheme {
			half := scaled(64, cores) / 2
			return Scheme{
				Secure: true, Tree: integrity.VAULT(), Isolated: true,
				MetaCacheKB: half, MACCacheKB: half,
			}
		},
	},
	{
		name: "synergy",
		desc: "Synergy: MAC in ECC chip, uncached per-block parity on every write",
		tags: []string{"fig8", "fig11"},
		build: func(cores int) Scheme {
			// MAC in ECC; 64 KB unified counter/tree cache; uncached
			// per-block parity written on every data write.
			return Scheme{
				Secure: true, Tree: integrity.VAULT(), MACInECC: true,
				Parity: ParityPerBlock, MetaCacheKB: scaled(64, cores),
			}
		},
	},
	{
		name: "itsynergy",
		desc: "Synergy with per-enclave isolated trees",
		tags: []string{"fig8"},
		build: func(cores int) Scheme {
			return Scheme{
				Secure: true, Tree: integrity.VAULT(), MACInECC: true,
				Isolated: true, Parity: ParityPerBlock, MetaCacheKB: scaled(64, cores),
			}
		},
	},
	{
		name: "itsynergy+pc",
		desc: "isolated Synergy plus the coalescing parity write cache",
		tags: []string{"fig8"},
		build: func(cores int) Scheme {
			half := scaled(64, cores) / 2
			return Scheme{
				Secure: true, Tree: integrity.VAULT(), MACInECC: true,
				Isolated: true, Parity: ParityPerBlock, ParityCached: true,
				MetaCacheKB: half, ParityCacheKB: half,
			}
		},
	},
	{
		name: "sharedparity",
		desc: "cross-rank shared parity (RAID-5-style RMW updates), Section III-C",
		tags: []string{"fig8"},
		build: func(cores int) Scheme {
			return Scheme{
				Secure: true, Tree: integrity.VAULT(), MACInECC: true,
				Isolated: true, Parity: ParityShared, ParityShare: 16,
				MetaCacheKB: scaled(64, cores),
			}
		},
	},
	{
		name: "sharedparity+pc",
		desc: "shared parity plus the coalescing parity write cache",
		tags: []string{"fig8"},
		build: func(cores int) Scheme {
			half := scaled(64, cores) / 2
			return Scheme{
				Secure: true, Tree: integrity.VAULT(), MACInECC: true,
				Isolated: true, Parity: ParityShared, ParityShare: 16, ParityCached: true,
				MetaCacheKB: half, ParityCacheKB: half,
			}
		},
	},
	{
		name: "itesp",
		desc: "the proposal: isolated trees with embedded shared parity in tree leaves",
		tags: []string{"fig8"},
		build: func(cores int) Scheme {
			return Scheme{
				Secure: true, Tree: integrity.ITESP(), MACInECC: true,
				Isolated: true, Parity: ParityEmbedded, MetaCacheKB: scaled(64, cores),
			}
		},
	},
	{
		name: "itesp4p",
		desc: "ITESP variant embedding four parities per leaf node",
		build: func(cores int) Scheme {
			return Scheme{
				Secure: true, Tree: integrity.ITESP4P(), MACInECC: true,
				Isolated: true, Parity: ParityEmbedded, MetaCacheKB: scaled(64, cores),
			}
		},
	},
	{
		name: "syn128",
		desc: "Synergy on 128-ary morphable counters with overflow accounting (Fig 11)",
		tags: []string{"fig11"},
		build: func(cores int) Scheme {
			return Scheme{
				Secure: true, Tree: integrity.SYN128(), MACInECC: true,
				Parity: ParityPerBlock, MetaCacheKB: scaled(64, cores), ModelOverflow: true,
			}
		},
	},
	{
		name: "syn128iso",
		desc: "isolated-tree syn128 (Fig 11)",
		tags: []string{"fig11"},
		build: func(cores int) Scheme {
			return Scheme{
				Secure: true, Tree: integrity.SYN128(), MACInECC: true,
				Isolated: true, Parity: ParityPerBlock, MetaCacheKB: scaled(64, cores), ModelOverflow: true,
			}
		},
	},
	{
		name: "itesp64",
		desc: "ITESP on 64-ary morphable counters (Fig 11)",
		tags: []string{"fig11"},
		build: func(cores int) Scheme {
			return Scheme{
				Secure: true, Tree: integrity.ITESP64(), MACInECC: true,
				Isolated: true, Parity: ParityEmbedded, MetaCacheKB: scaled(64, cores), ModelOverflow: true,
			}
		},
	},
	{
		name: "itesp128",
		desc: "ITESP on 128-ary morphable counters (Fig 11)",
		tags: []string{"fig11"},
		build: func(cores int) Scheme {
			return Scheme{
				Secure: true, Tree: integrity.ITESP128(), MACInECC: true,
				Isolated: true, Parity: ParityEmbedded, MetaCacheKB: scaled(64, cores), ModelOverflow: true,
			}
		},
	},
	{
		// servas is a SERVAS-style treeless authenticryption scheme
		// (Steinegger et al., see PAPERS.md): memory is encrypted with an
		// authenticated cipher whose per-block tag doubles as the integrity
		// MAC, keyed by a per-enclave tweak. Freshness comes from the cipher
		// construction instead of a counter tree, so there is no
		// integrity-tree metadata and no tree-walk traffic — a radically
		// different profile from the paper's families. The cache budget
		// split is equally different: with no counters to cache, the whole
		// 16 KB/core budget backs the MAC cache. Tags provide detection but
		// there is no parity, so faults are detected (DUE) and never
		// corrected.
		name: "servas",
		desc: "SERVAS-style treeless authenticryption: per-block MAC-with-tweak, no integrity tree",
		build: func(cores int) Scheme {
			return Scheme{
				Secure: true, NoTree: true,
				MACCacheKB: scaled(64, cores),
			}
		},
	},
	{
		// tmebox is a TME-Box-style multi-key encryption scheme
		// (Unterguggenberger et al., see PAPERS.md): in-process isolation
		// comes from assigning each sandbox its own
		// transparent-memory-encryption key, not from a tree or MACs. What
		// it stresses is the key path — a key table in DRAM fronted by an
		// on-chip key cache (the MetaCacheKB budget) — and the pressure
		// scales with the domain count, which is the family's scheme
		// parameter (Scheme.KeyDomains). Two configurations bracket the
		// regime: `tmebox` at 4096 domains sizes the key table at the key
		// cache's capacity so real workloads thrash it, and `tmebox256` is
		// the small-population case whose keys fit on chip after cold
		// misses. Encryption-only schemes carry NoMAC: they cannot detect
		// faults, matching plain TME hardware.
		name: "tmebox",
		desc: "TME-Box multi-key encryption, 4096 in-process key domains stressing the key path",
		build: func(cores int) Scheme {
			return Scheme{
				Secure: true, NoTree: true, NoMAC: true,
				KeyDomains:  4096,
				MetaCacheKB: scaled(64, cores),
			}
		},
	},
	{
		name: "tmebox256",
		desc: "TME-Box with 256 key domains: key table fits the on-chip key cache",
		build: func(cores int) Scheme {
			return Scheme{
				Secure: true, NoTree: true, NoMAC: true,
				KeyDomains:  256,
				MetaCacheKB: scaled(64, cores),
			}
		},
	},
}

// SchemeByName returns the named scheme configured for the given core
// count; `itespsim -list-schemes` lists the names with their descriptions.
func SchemeByName(name string, cores int) (Scheme, error) {
	for _, r := range schemes {
		if r.name == name {
			s := r.build(cores)
			s.Name = name
			return s, nil
		}
	}
	return Scheme{}, fmt.Errorf("core: unknown scheme %q", name)
}

// SchemeNames lists all selectable schemes: Figure 8 order, then the
// Morphable-counter configurations of Figure 11, then the post-paper
// families (SERVAS, TME-Box).
func SchemeNames() []string {
	names := make([]string, len(schemes))
	for i, r := range schemes {
		names[i] = r.name
	}
	return names
}

// NamesTagged lists the schemes carrying the given tag, in SchemeNames()
// order. Experiment harnesses derive their scheme lists ("fig8", "fig11")
// from it.
func NamesTagged(tag string) []string {
	var names []string
	for _, r := range schemes {
		if slices.Contains(r.tags, tag) {
			names = append(names, r.name)
		}
	}
	return names
}

// Descriptions returns a name -> one-line description map over every
// scheme (for doc generation).
func Descriptions() map[string]string {
	out := make(map[string]string, len(schemes))
	for _, r := range schemes {
		out[r.name] = r.desc
	}
	return out
}
