// Package mem models host physical memory as 4 KB pages with per-page
// ownership, reference counting, and byte-level contents. It implements
// the memory-safety substrate the CDNA protection mechanisms (paper §3.3)
// rely on:
//
//   - every page has an owning domain;
//   - pages carry a reference count; a freed page is not returned to the
//     allocator while its refcount is non-zero, which is how the
//     hypervisor prevents reallocation during an in-flight DMA;
//   - pages can be marked hypervisor-exclusive for writing, which is how
//     the hypervisor takes exclusive write access to the CDNA descriptor
//     rings during driver initialization.
//
// CPU writes go through WriteAs and are permission-checked. Device (DMA)
// accesses go through Read/Write with no checks — exactly like real
// hardware without an IOMMU, which is the attack surface CDNA's
// descriptor validation exists to close.
//
// The page table is built only where a page changes. A many-guest
// machine allocates tens of thousands of buffer pages, and most of them
// are never pinned, written or freed in a run. The table is
// split into fixed-size chunks of pointer-free entries. A whole chunk
// inside one AllocRun stays "fresh", recorded as its owner alone, until
// one of its pages first changes; the read paths see a fresh chunk's
// pages as owned, unpinned and never written. So the garbage collector
// neither scans the table nor copies it as it grows, and the few pages
// that are ever written (descriptor rings, bit vectors) keep their
// bytes in a separate side table.
package mem

import (
	"errors"
	"fmt"
	"math"
)

// DomID identifies a domain for ownership purposes.
type DomID int

// Reserved domain IDs.
const (
	DomInvalid DomID = -1
	DomHyp     DomID = 0 // the hypervisor itself
	Dom0       DomID = 1 // the driver domain
	// Guest domains are Dom0+1, Dom0+2, ...
)

// PageSize is the host page size in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PFN is a physical frame number.
type PFN uint64

// Addr is a physical byte address.
type Addr uint64

// PFN returns the frame containing the address.
func (a Addr) PFN() PFN { return PFN(a >> PageShift) }

// Offset returns the in-page offset of the address.
func (a Addr) Offset() int { return int(a & (PageSize - 1)) }

// Base returns the first address of the frame.
func (p PFN) Base() Addr { return Addr(p) << PageShift }

// Errors returned by memory operations.
var (
	ErrNotOwner     = errors.New("mem: caller does not own page")
	ErrNoPage       = errors.New("mem: no such page")
	ErrHypExclusive = errors.New("mem: page is hypervisor-exclusive for writing")
	ErrZeroRef      = errors.New("mem: refcount underflow")
	ErrFreed        = errors.New("mem: page already freed")
)

// Page-table chunk geometry. Entries live in fixed-size chunks that are
// allocated when one of their pages first changes, so growing the table
// never copies an entry and an empty Memory holds no chunk at all. A
// chunk is 64 pages (768 bytes): smaller chunks build fewer untouched
// entries around each touched page, larger ones fewer chunk headers,
// and 64 measured the least machine-assembly allocation (DESIGN.md).
const (
	chunkShift = 6
	chunkPages = 1 << chunkShift
	chunkMask  = chunkPages - 1
)

// page is one 12-byte page-table entry. It holds no pointers, so the
// garbage collector never scans the table: the bytes of a written page
// live in Memory.data, indexed by the entry. The owner is stored as an
// int16; Alloc and AllocRun refuse a domain outside that range.
type page struct {
	ref     int32
	data    int32 // 1-based index into Memory.data; 0 = never written
	owner   int16
	freed   bool // owner freed it; returns to pool when ref drops to 0
	hypOnly bool // only the hypervisor may CPU-write this page
}

// ownerOf packs a domain into a page entry's owner field, panicking on
// a domain the entry cannot hold.
func ownerOf(dom DomID) int16 {
	if dom < math.MinInt16 || dom > math.MaxInt16 {
		panic(fmt.Sprintf("mem: domain %d outside the page table's int16 owner range", dom))
	}
	return int16(dom)
}

// pageChunk is one fixed-size block of the page table.
type pageChunk [chunkPages]page

// fresh is the entry of every page in a fresh chunk: owned by owner,
// unpinned, never written, not freed and not hypervisor-exclusive.
func fresh(owner int16) page { return page{owner: owner} }

// Memory is the machine's physical memory. New frame numbers are
// handed out sequentially, so the page table is indexed by PFN: a
// lookup on the DMA hot path (descriptor reads, payload writes,
// ownership validation) is a shift and a mask into pointer-free chunks,
// not a hash probe, and iteration order is inherently deterministic.
type Memory struct {
	// Entry i is chunks[i>>chunkShift][i&chunkMask]. A nil chunk is
	// fresh: every page in it reads as fresh(owners[i>>chunkShift]).
	chunks []*pageChunk
	owners []int16  // owner of each fresh chunk; unused once it is built
	npages PFN      // table length and next new frame; entry 0 is never allocated
	data   [][]byte // contents of written pages, PageSize each
	freeQ  []PFN
}

// New returns an empty physical memory. PFN 0 is never allocated, so
// Addr 0 stays invalid.
func New() *Memory {
	return &Memory{npages: 1}
}

// peek returns the entry for pfn by value, reading a fresh chunk
// without building it; ok is false if pfn was never allocated. Every
// read path goes through peek.
func (m *Memory) peek(pfn PFN) (pg page, ok bool) {
	if pfn == 0 || pfn >= m.npages {
		return page{}, false
	}
	c := m.chunks[pfn>>chunkShift]
	if c == nil {
		return fresh(m.owners[pfn>>chunkShift]), true
	}
	return c[pfn&chunkMask], true
}

// lookup returns the page for pfn, building its chunk if it is fresh,
// or nil if it was never allocated. Every mutator goes through lookup;
// one that can refuse (Put, Free) checks through peek first, so a
// refused operation builds nothing.
func (m *Memory) lookup(pfn PFN) *page {
	if pfn == 0 || pfn >= m.npages {
		return nil
	}
	c := m.chunks[pfn>>chunkShift]
	if c == nil {
		c = m.build(pfn >> chunkShift)
	}
	return &c[pfn&chunkMask]
}

// build materializes fresh chunk i as entries, the first time one of
// its pages changes.
func (m *Memory) build(i PFN) *pageChunk {
	c := new(pageChunk)
	for j := range c {
		c[j] = fresh(m.owners[i])
	}
	m.chunks[i] = c
	return c
}

// appendPage adds a zero entry at the end of the page table, allocating
// its chunk if the table just crossed into a new one, and returns it.
func (m *Memory) appendPage() *page {
	i := m.npages
	if int(i>>chunkShift) == len(m.chunks) {
		m.chunks = append(m.chunks, new(pageChunk))
		m.owners = append(m.owners, 0)
	}
	m.npages++
	return &m.chunks[i>>chunkShift][i&chunkMask]
}

// pageData returns the bytes of a written page, giving it a zeroed
// side-table slot on its first write.
func (m *Memory) pageData(pg *page) []byte {
	if pg.data == 0 {
		m.data = append(m.data, make([]byte, PageSize))
		pg.data = int32(len(m.data))
	}
	return m.data[pg.data-1]
}

// Alloc allocates n pages owned by dom and returns their frame numbers.
// Freed frames are handed out first, so the frames need not be
// contiguous; a caller that addresses them as one run uses AllocRun.
func (m *Memory) Alloc(dom DomID, n int) []PFN {
	owner := ownerOf(dom)
	out := make([]PFN, 0, n)
	for i := 0; i < n; i++ {
		var pfn PFN
		if len(m.freeQ) > 0 {
			pfn = m.freeQ[0]
			m.freeQ = m.freeQ[1:]
			pg := m.lookup(pfn)
			pg.owner = owner
			pg.freed = false
			pg.hypOnly = false
			if pg.data != 0 {
				clear(m.data[pg.data-1])
			}
		} else {
			pfn = m.AllocRun(dom, 1)
		}
		out = append(out, pfn)
	}
	return out
}

// AllocRun allocates n contiguous frames owned by dom and returns the
// first. The frames are always new, never recycled ones, so [first,
// first+n) is one run that a descriptor ring or a buffer pool can
// address by its base; no slice of frame numbers is built. Each whole,
// aligned chunk inside the run is recorded by its owner alone and
// built only when one of its pages changes; the partial chunks at
// either end are built page by page.
func (m *Memory) AllocRun(dom DomID, n int) PFN {
	if n < 1 {
		panic(fmt.Sprintf("mem: AllocRun of %d frames", n))
	}
	owner := ownerOf(dom)
	first := m.npages
	for end := first + PFN(n); m.npages < end; {
		if m.npages&chunkMask == 0 && end-m.npages >= chunkPages {
			m.chunks = append(m.chunks, nil)
			m.owners = append(m.owners, owner)
			m.npages += chunkPages
			continue
		}
		m.appendPage().owner = owner
	}
	return first
}

// Free releases a page back to the allocator. The caller must own the
// page. If the page has outstanding references (an in-flight DMA), the
// page is marked freed but is not reallocated until the last reference
// is dropped — the §3.3 reallocation-delay guarantee.
func (m *Memory) Free(dom DomID, pfn PFN) error {
	switch pg, ok := m.peek(pfn); {
	case !ok:
		return ErrNoPage
	case pg.freed:
		return ErrFreed
	case DomID(pg.owner) != dom && dom != DomHyp:
		return ErrNotOwner
	}
	pg := m.lookup(pfn)
	pg.freed = true
	pg.owner = int16(DomInvalid)
	if pg.ref == 0 {
		m.freeQ = append(m.freeQ, pfn)
	}
	return nil
}

// Owner returns the owning domain, or DomInvalid for unknown/freed pages.
func (m *Memory) Owner(pfn PFN) DomID {
	pg, ok := m.peek(pfn)
	if !ok {
		return DomInvalid
	}
	return DomID(pg.owner)
}

// Get increments the page's DMA reference count (hypervisor pins the page
// for an enqueued descriptor).
func (m *Memory) Get(pfn PFN) error {
	pg := m.lookup(pfn)
	if pg == nil {
		return ErrNoPage
	}
	pg.ref++
	return nil
}

// Put decrements the reference count. When a freed page's count reaches
// zero it finally returns to the allocator.
func (m *Memory) Put(pfn PFN) error {
	switch pg, ok := m.peek(pfn); {
	case !ok:
		return ErrNoPage
	case pg.ref == 0:
		return ErrZeroRef
	}
	pg := m.lookup(pfn)
	pg.ref--
	if pg.ref == 0 && pg.freed {
		m.freeQ = append(m.freeQ, pfn)
	}
	return nil
}

// Refs returns the current reference count.
func (m *Memory) Refs(pfn PFN) int {
	pg, _ := m.peek(pfn)
	return int(pg.ref)
}

// SetHypExclusive marks or clears hypervisor-exclusive write access on a
// page (descriptor-ring protection, §3.3).
func (m *Memory) SetHypExclusive(pfn PFN, on bool) error {
	pg := m.lookup(pfn)
	if pg == nil {
		return ErrNoPage
	}
	pg.hypOnly = on
	return nil
}

// HypExclusive reports whether the page is hypervisor-exclusive.
func (m *Memory) HypExclusive(pfn PFN) bool {
	pg, _ := m.peek(pfn)
	return pg.hypOnly
}

// RangeOwned reports whether every byte of [addr, addr+n) lies in pages
// owned by dom. It is the core ownership check of descriptor validation.
// A range that wraps past the top of the address space is owned by no
// one.
func (m *Memory) RangeOwned(dom DomID, addr Addr, n int) bool {
	first, count := RangeSpan(addr, n)
	if count == 0 {
		return false
	}
	for pfn := first; pfn < first+PFN(count); pfn++ {
		pg, ok := m.peek(pfn)
		if !ok || DomID(pg.owner) != dom || pg.freed {
			return false
		}
	}
	return true
}

// RangeSpan returns the first frame and the frame count spanned by
// [addr, addr+n). An empty range, or one that wraps past the top of
// the address space, spans no frames.
func RangeSpan(addr Addr, n int) (PFN, int) {
	if n <= 0 || uint64(n)-1 > math.MaxUint64-uint64(addr) {
		return 0, 0
	}
	first, last := addr.PFN(), Addr(uint64(addr)+uint64(n)-1).PFN()
	return first, int(last-first) + 1
}

// errNoPage wraps ErrNoPage with the frame that has no entry.
func errNoPage(a Addr) error { return fmt.Errorf("%w: pfn %d", ErrNoPage, a.PFN()) }

// Write stores bytes at addr with no permission checks: this is the
// device/DMA path (hardware without an IOMMU can write anywhere).
func (m *Memory) Write(addr Addr, b []byte) error {
	for len(b) > 0 {
		pg := m.lookup(addr.PFN())
		if pg == nil {
			return errNoPage(addr)
		}
		n := copy(m.pageData(pg)[addr.Offset():], b)
		b = b[n:]
		addr += Addr(n)
	}
	return nil
}

// WriteAs stores bytes at addr on behalf of a CPU domain, enforcing
// ownership and hypervisor-exclusive protection. The hypervisor may write
// anywhere.
func (m *Memory) WriteAs(dom DomID, addr Addr, b []byte) error {
	// Permission check over the whole range first, so partial writes
	// cannot leak through.
	first, last := addr.PFN(), Addr(uint64(addr)+uint64(len(b))-1).PFN()
	if len(b) == 0 {
		last = first
	}
	for pfn := first; pfn <= last; pfn++ {
		pg, ok := m.peek(pfn)
		if !ok {
			return ErrNoPage
		}
		if dom != DomHyp {
			if DomID(pg.owner) != dom {
				return ErrNotOwner
			}
			if pg.hypOnly {
				return ErrHypExclusive
			}
		}
	}
	return m.Write(addr, b)
}

// Read copies n bytes starting at addr (device path, unchecked).
func (m *Memory) Read(addr Addr, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := m.ReadInto(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto copies len(dst) bytes starting at addr into dst (device
// path, unchecked). Hot DMA readers (descriptor fetches, bit-vector
// polls) pass a reusable buffer so steady-state reads allocate nothing.
func (m *Memory) ReadInto(addr Addr, dst []byte) error {
	for len(dst) > 0 {
		pg, ok := m.peek(addr.PFN())
		if !ok {
			return errNoPage(addr)
		}
		off := addr.Offset()
		var c int
		if pg.data == 0 {
			c = min(PageSize-off, len(dst))
			clear(dst[:c])
		} else {
			c = copy(dst, m.data[pg.data-1][off:])
		}
		dst = dst[c:]
		addr += Addr(c)
	}
	return nil
}

// Pages returns how many live (not freed) pages dom owns.
func (m *Memory) Pages(dom DomID) int {
	n := 0
	for pfn := PFN(1); pfn < m.npages; pfn++ {
		if pg, _ := m.peek(pfn); DomID(pg.owner) == dom && !pg.freed {
			n++
		}
	}
	return n
}
