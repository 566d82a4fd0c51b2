package enclave

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/stats"
)

// PTE is one page-table entry: the physical page backing a virtual page and
// the enclave-local leaf-id assigned by the MMU when the page was mapped.
type PTE struct {
	PhysPage uint64
	LeafID   uint64
}

// Enclave holds one protected application's translation state.
type Enclave struct {
	ID mem.EnclaveID

	pages    map[uint64]PTE // virtual page -> PTE
	nextLeaf uint64
	freeLeaf []uint64 // reclaimed leaf-ids, reused LIFO

	// Touched counts distinct pages ever mapped.
	Touched stats.Counter
}

// System owns physical memory allocation across all enclaves.
type System struct {
	dataPages uint64
	nextPage  uint64
	scatter   bool
	freePages []uint64 // reclaimed physical pages, reused FIFO-ish (LIFO)
	enclaves  map[mem.EnclaveID]*Enclave
	permMask  uint64
	permBits  uint
}

// NewSystem creates an allocator over dataPages physical pages of the data
// region. The single free list is shared by all enclaves, so pages touched
// alternately by co-scheduled enclaves become physically interleaved —
// exactly the layout that makes the shared integrity tree leak
// (Section III-B). By default the free list is *scattered*: pages come from
// a pseudo-random permutation of the physical space, modeling a fragmented
// EPC after uptime (the paper converts Pin traces with real page-table
// dumps "so we accurately capture how multi-programmed workloads have
// interspersed physical pages"). Use NewDenseSystem for in-order handout.
func NewSystem(dataPages uint64) *System {
	s := NewDenseSystem(dataPages)
	s.scatter = true
	return s
}

// NewDenseSystem creates an allocator that hands pages out in ascending
// address order (an idealized, freshly-booted layout).
func NewDenseSystem(dataPages uint64) *System {
	if dataPages == 0 {
		panic("enclave: need at least one physical page")
	}
	bits := uint(1)
	for uint64(1)<<bits < dataPages {
		bits++
	}
	return &System{
		dataPages: dataPages,
		enclaves:  make(map[mem.EnclaveID]*Enclave),
		permMask:  uint64(1)<<bits - 1,
		permBits:  bits,
	}
}

// permute maps allocation order to a scattered physical page via a bijective
// mix on the next power of two, cycle-walking past out-of-range values.
func (s *System) permute(i uint64) uint64 {
	sh1 := s.permBits/2 + 1
	sh2 := s.permBits/3 + 1
	x := i & s.permMask
	for {
		// Odd-constant multiply and xor-shift are both bijective mod 2^k.
		x = (x * 0x9E3779B1) & s.permMask
		x ^= x >> sh1
		x = (x * 0x85EBCA77) & s.permMask
		x ^= x >> sh2
		x &= s.permMask
		if x < s.dataPages {
			return x
		}
	}
}

// DataPages returns the number of physical pages managed.
func (s *System) DataPages() uint64 { return s.dataPages }

// Create registers a new enclave. It panics on duplicate ids.
func (s *System) Create(id mem.EnclaveID) *Enclave {
	if _, dup := s.enclaves[id]; dup {
		panic(fmt.Sprintf("enclave: duplicate id %d", id))
	}
	e := &Enclave{ID: id, pages: make(map[uint64]PTE)}
	s.enclaves[id] = e
	return e
}

// Enclave returns the enclave with the given id, or nil.
func (s *System) Enclave(id mem.EnclaveID) *Enclave { return s.enclaves[id] }

// allocPage hands out the next free physical page.
func (s *System) allocPage() (uint64, error) {
	if n := len(s.freePages); n > 0 {
		p := s.freePages[n-1]
		s.freePages = s.freePages[:n-1]
		return p, nil
	}
	if s.nextPage >= s.dataPages {
		return 0, fmt.Errorf("enclave: out of physical pages (%d allocated)", s.nextPage)
	}
	p := s.nextPage
	s.nextPage++
	if s.scatter {
		return s.permute(p), nil
	}
	return p, nil
}

// allocLeaf hands out the enclave's next free leaf-id.
func (e *Enclave) allocLeaf() uint64 {
	if n := len(e.freeLeaf); n > 0 {
		l := e.freeLeaf[n-1]
		e.freeLeaf = e.freeLeaf[:n-1]
		return l
	}
	l := e.nextLeaf
	e.nextLeaf++
	return l
}

// Translate maps a virtual address of enclave id to a physical address,
// faulting in a fresh physical page (and assigning a leaf-id) on first
// touch. It returns the PTE alongside for callers that need the leaf-id.
func (s *System) Translate(id mem.EnclaveID, v mem.VirtAddr) (mem.PhysAddr, PTE, error) {
	e := s.enclaves[id]
	if e == nil {
		return 0, PTE{}, fmt.Errorf("enclave: unknown enclave %d", id)
	}
	vp := v.Page()
	pte, ok := e.pages[vp]
	if !ok {
		pp, err := s.allocPage()
		if err != nil {
			return 0, PTE{}, err
		}
		pte = PTE{PhysPage: pp, LeafID: e.allocLeaf()}
		e.pages[vp] = pte
		e.Touched.Inc()
	}
	pa := mem.PhysAddr(pte.PhysPage*mem.PageSize + uint64(v)%mem.PageSize)
	return pa, pte, nil
}

// Unmap releases a virtual page, returning the physical page to the shared
// free list and the leaf-id to the enclave's free list (Section III-A:
// "When pages are reclaimed, the list of free leaf-ids is also updated").
func (s *System) Unmap(id mem.EnclaveID, v mem.VirtAddr) error {
	e := s.enclaves[id]
	if e == nil {
		return fmt.Errorf("enclave: unknown enclave %d", id)
	}
	vp := v.Page()
	pte, ok := e.pages[vp]
	if !ok {
		return fmt.Errorf("enclave: page %#x not mapped", vp)
	}
	delete(e.pages, vp)
	s.freePages = append(s.freePages, pte.PhysPage)
	e.freeLeaf = append(e.freeLeaf, pte.LeafID)
	return nil
}

// LocalBlock returns the enclave-local block index of a physical address:
// the leaf-id replaces the physical page number, so consecutive touched
// pages of the enclave occupy consecutive leaves of its private tree.
func LocalBlock(pte PTE, pa mem.PhysAddr) uint64 {
	return pte.LeafID*mem.BlocksPage + pa.BlockInPage()
}

// MappedPages returns the number of currently mapped pages.
func (e *Enclave) MappedPages() int { return len(e.pages) }
