package mem

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// Tests of fresh chunks: a whole chunk inside an AllocRun is recorded
// by its owner alone until one of its pages changes. FuzzPageTable runs
// random operation streams against a table with one plain entry per
// page, so a fresh chunk that reads differently from built entries, or
// a mutator that changes a page without building its chunk, shows as a
// wrong error or a wrong read.

// modelPage is one page of the reference table.
type modelPage struct {
	owner DomID
	ref   int
	freed bool
	hyp   bool
	data  []byte // nil until the page is first written
}

// pageModel is the reference page table: one entry per frame, indexed
// by PFN, with the allocator rules Memory documents.
type pageModel struct {
	pages []modelPage // pages[0] is PFN 0, never allocated
	freeQ []PFN
}

func newPageModel() *pageModel { return &pageModel{pages: make([]modelPage, 1)} }

func (m *pageModel) page(pfn PFN) *modelPage {
	if pfn == 0 || pfn >= PFN(len(m.pages)) {
		return nil
	}
	return &m.pages[pfn]
}

func (m *pageModel) allocRun(dom DomID, n int) PFN {
	first := PFN(len(m.pages))
	for range n {
		m.pages = append(m.pages, modelPage{owner: dom})
	}
	return first
}

func (m *pageModel) alloc(dom DomID, n int) []PFN {
	var out []PFN
	for range n {
		if len(m.freeQ) == 0 {
			out = append(out, m.allocRun(dom, 1))
			continue
		}
		pfn := m.freeQ[0]
		m.freeQ = m.freeQ[1:]
		pg := m.page(pfn)
		pg.owner, pg.freed, pg.hyp = dom, false, false
		clear(pg.data)
		out = append(out, pfn)
	}
	return out
}

func (m *pageModel) free(dom DomID, pfn PFN) error {
	pg := m.page(pfn)
	switch {
	case pg == nil:
		return ErrNoPage
	case pg.freed:
		return ErrFreed
	case pg.owner != dom && dom != DomHyp:
		return ErrNotOwner
	}
	pg.freed, pg.owner = true, DomInvalid
	if pg.ref == 0 {
		m.freeQ = append(m.freeQ, pfn)
	}
	return nil
}

func (m *pageModel) get(pfn PFN) error {
	pg := m.page(pfn)
	if pg == nil {
		return ErrNoPage
	}
	pg.ref++
	return nil
}

func (m *pageModel) put(pfn PFN) error {
	pg := m.page(pfn)
	switch {
	case pg == nil:
		return ErrNoPage
	case pg.ref == 0:
		return ErrZeroRef
	}
	pg.ref--
	if pg.ref == 0 && pg.freed {
		m.freeQ = append(m.freeQ, pfn)
	}
	return nil
}

func (m *pageModel) setHyp(pfn PFN, on bool) error {
	pg := m.page(pfn)
	if pg == nil {
		return ErrNoPage
	}
	pg.hyp = on
	return nil
}

func (m *pageModel) owner(pfn PFN) DomID {
	if pg := m.page(pfn); pg != nil {
		return pg.owner
	}
	return DomInvalid
}

func (m *pageModel) refs(pfn PFN) int {
	if pg := m.page(pfn); pg != nil {
		return pg.ref
	}
	return 0
}

func (m *pageModel) hypExclusive(pfn PFN) bool {
	pg := m.page(pfn)
	return pg != nil && pg.hyp
}

func (m *pageModel) rangeOwned(dom DomID, addr Addr, n int) bool {
	first, count := RangeSpan(addr, n)
	if count == 0 {
		return false
	}
	for pfn := first; pfn < first+PFN(count); pfn++ {
		if pg := m.page(pfn); pg == nil || pg.owner != dom || pg.freed {
			return false
		}
	}
	return true
}

func (m *pageModel) write(addr Addr, b []byte) error {
	for len(b) > 0 {
		pg := m.page(addr.PFN())
		if pg == nil {
			return fmt.Errorf("%w: pfn %d", ErrNoPage, addr.PFN())
		}
		if pg.data == nil {
			pg.data = make([]byte, PageSize)
		}
		n := copy(pg.data[addr.Offset():], b)
		b = b[n:]
		addr += Addr(n)
	}
	return nil
}

func (m *pageModel) writeAs(dom DomID, addr Addr, b []byte) error {
	first, last := addr.PFN(), Addr(uint64(addr)+uint64(len(b))-1).PFN()
	if len(b) == 0 {
		last = first
	}
	for pfn := first; pfn <= last; pfn++ {
		pg := m.page(pfn)
		switch {
		case pg == nil:
			return ErrNoPage
		case dom == DomHyp:
		case pg.owner != dom:
			return ErrNotOwner
		case pg.hyp:
			return ErrHypExclusive
		}
	}
	return m.write(addr, b)
}

func (m *pageModel) readInto(addr Addr, dst []byte) error {
	for len(dst) > 0 {
		pg := m.page(addr.PFN())
		if pg == nil {
			return fmt.Errorf("%w: pfn %d", ErrNoPage, addr.PFN())
		}
		c := min(PageSize-addr.Offset(), len(dst))
		if pg.data == nil {
			clear(dst[:c])
		} else {
			copy(dst[:c], pg.data[addr.Offset():])
		}
		dst = dst[c:]
		addr += Addr(c)
	}
	return nil
}

func (m *pageModel) pageCount(dom DomID) int {
	n := 0
	for _, pg := range m.pages[1:] {
		if pg.owner == dom && !pg.freed {
			n++
		}
	}
	return n
}

// Operations of a FuzzPageTable stream. Each is one opcode byte and
// then its arguments: a domain is one byte, a frame three (taken modulo
// two past the table's end, so PFN 0 and missing frames occur), an
// in-page offset two and a length two.
const (
	opAllocRun   = iota // dom, n (2 bytes: 1 to 3000 frames)
	opAlloc             // dom, n (1 byte: 1 to 4 frames)
	opFree              // dom, pfn
	opGet               // pfn
	opPut               // pfn
	opSetHyp            // pfn, on
	opWrite             // pfn, off, len (up to two pages)
	opWriteAs           // dom, pfn, off, len
	opReadInto          // pfn, off, len
	opRangeOwned        // dom, pfn, off, len (3 bytes: up to three chunks)
	numOps
)

// fuzzDoms are the domains a stream names: the hypervisor, dom0 and two
// guests. DomInvalid is the owner of freed pages.
var fuzzDoms = []DomID{DomHyp, Dom0, guestA, guestB}

// opReader decodes a stream's bytes; ok turns false once they run out.
type opReader struct {
	b  []byte
	ok bool
}

func (r *opReader) uint(n int) int {
	v := 0
	for range n {
		if len(r.b) == 0 {
			r.ok = false
			return 0
		}
		v = v<<8 | int(r.b[0])
		r.b = r.b[1:]
	}
	return v
}

func (r *opReader) dom() DomID     { return fuzzDoms[r.uint(1)%len(fuzzDoms)] }
func (r *opReader) pfn(np int) PFN { return PFN(r.uint(3) % (np + 2)) }
func (r *opReader) addr(np int) Addr {
	pfn := r.pfn(np)
	return pfn.Base() + Addr(r.uint(2)%PageSize)
}

// fill returns n bytes that differ from step to step and are never all
// zero, so a lost write shows.
func fill(step, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(step*31+i)%251 + 1
	}
	return b
}

// checkTable compares every read of mem against the model: each
// frame's owner, refcount and hypervisor-exclusive bit, each domain's
// page count, each chunk's ownership for the owner of its first page
// and for a guest, and the bytes of every written frame and of frame.
func checkTable(t *testing.T, step int, m *Memory, ref *pageModel, frame PFN) {
	t.Helper()
	np := len(ref.pages)
	if m.npages != PFN(np) {
		t.Fatalf("step %d: table length %d, model %d", step, m.npages, np)
	}
	for pfn := PFN(0); pfn < PFN(np+2); pfn++ {
		if got, want := m.Owner(pfn), ref.owner(pfn); got != want {
			t.Fatalf("step %d: Owner(%d) = %d, model %d", step, pfn, got, want)
		}
		if got, want := m.Refs(pfn), ref.refs(pfn); got != want {
			t.Fatalf("step %d: Refs(%d) = %d, model %d", step, pfn, got, want)
		}
		if got, want := m.HypExclusive(pfn), ref.hypExclusive(pfn); got != want {
			t.Fatalf("step %d: HypExclusive(%d) = %v, model %v", step, pfn, got, want)
		}
	}
	for _, dom := range append(fuzzDoms, DomInvalid) {
		if got, want := m.Pages(dom), ref.pageCount(dom); got != want {
			t.Fatalf("step %d: Pages(%d) = %d, model %d", step, dom, got, want)
		}
	}
	for base := PFN(0); base < PFN(np); base += chunkPages {
		for _, dom := range []DomID{ref.owner(max(base, 1)), guestA} {
			got := m.RangeOwned(dom, base.Base(), chunkPages*PageSize)
			if want := ref.rangeOwned(dom, base.Base(), chunkPages*PageSize); got != want {
				t.Fatalf("step %d: RangeOwned(%d, chunk at %d) = %v, model %v", step, dom, base, got, want)
			}
		}
	}
	got, want := make([]byte, PageSize), make([]byte, PageSize)
	for pfn := PFN(0); pfn < PFN(np+2); pfn++ {
		if pg := ref.page(pfn); pfn != frame && (pg == nil || pg.data == nil) {
			continue
		}
		gerr, werr := m.ReadInto(pfn.Base(), got), ref.readInto(pfn.Base(), want)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !bytes.Equal(got, want) {
			t.Fatalf("step %d: ReadInto(frame %d) = %v, model %v, bytes differ: %v", step, pfn, gerr, werr, !bytes.Equal(got, want))
		}
	}
}

// runPageTable decodes ops and applies each to a Memory and to the
// model, comparing results after every step. It stops at 64 steps.
func runPageTable(t *testing.T, ops []byte) {
	m, ref := New(), newPageModel()
	r := &opReader{b: ops, ok: true}
	same := func(step int, what string, got, want error) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: %s: error %v, model %v", step, what, got, want)
		}
	}
	for step := 0; step < 64 && len(r.b) > 0; step++ {
		np := len(ref.pages)
		var frame PFN
		switch op := r.uint(1) % numOps; op {
		case opAllocRun:
			dom, n := r.dom(), 1+r.uint(2)%3000
			if !r.ok {
				return
			}
			if got, want := m.AllocRun(dom, n), ref.allocRun(dom, n); got != want {
				t.Fatalf("step %d: AllocRun(%d, %d) = %d, model %d", step, dom, n, got, want)
			}
		case opAlloc:
			dom, n := r.dom(), 1+r.uint(1)%4
			if !r.ok {
				return
			}
			if got, want := m.Alloc(dom, n), ref.alloc(dom, n); !slices.Equal(got, want) {
				t.Fatalf("step %d: Alloc(%d, %d) = %v, model %v", step, dom, n, got, want)
			}
		case opFree:
			dom, pfn := r.dom(), r.pfn(np)
			if !r.ok {
				return
			}
			same(step, "Free", m.Free(dom, pfn), ref.free(dom, pfn))
			frame = pfn
		case opGet, opPut:
			pfn := r.pfn(np)
			if !r.ok {
				return
			}
			if op == opGet {
				same(step, "Get", m.Get(pfn), ref.get(pfn))
			} else {
				same(step, "Put", m.Put(pfn), ref.put(pfn))
			}
			frame = pfn
		case opSetHyp:
			pfn, on := r.pfn(np), r.uint(1)&1 == 1
			if !r.ok {
				return
			}
			same(step, "SetHypExclusive", m.SetHypExclusive(pfn, on), ref.setHyp(pfn, on))
			frame = pfn
		case opWrite, opWriteAs:
			dom := DomHyp
			if op == opWriteAs {
				dom = r.dom()
			}
			addr, n := r.addr(np), r.uint(2)%(2*PageSize+1)
			if !r.ok {
				return
			}
			b := fill(step, n)
			if op == opWrite {
				same(step, "Write", m.Write(addr, b), ref.write(addr, b))
			} else {
				same(step, "WriteAs", m.WriteAs(dom, addr, b), ref.writeAs(dom, addr, b))
			}
			frame = addr.PFN()
		case opReadInto:
			addr, n := r.addr(np), r.uint(2)%(2*PageSize+1)
			if !r.ok {
				return
			}
			got, want := fill(step, n), fill(step, n)
			same(step, "ReadInto", m.ReadInto(addr, got), ref.readInto(addr, want))
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: ReadInto(%#x, %d) bytes differ from the model", step, addr, n)
			}
			frame = addr.PFN()
		case opRangeOwned:
			dom, addr, n := r.dom(), r.addr(np), r.uint(3)%(3*chunkPages*PageSize)
			if !r.ok {
				return
			}
			if got, want := m.RangeOwned(dom, addr, n), ref.rangeOwned(dom, addr, n); got != want {
				t.Fatalf("step %d: RangeOwned(%d, %#x, %d) = %v, model %v", step, dom, addr, n, got, want)
			}
			frame = addr.PFN()
		}
		checkTable(t, step, m, ref, frame)
	}
}

// pfn3 encodes a frame as the three bytes opReader.pfn reads; it is
// taken modulo two past the table's end, so it must be in range there.
func pfn3(p PFN) []byte { return []byte{byte(p >> 16), byte(p >> 8), byte(p)} }

func FuzzPageTable(f *testing.F) {
	g := byte(2) // fuzzDoms index of guestA
	seeds := [][]byte{
		// A 200-frame run leaves chunks 1 and 2 fresh; pin, write,
		// fence and free a page in each, then read them back.
		slices.Concat(
			[]byte{opAllocRun, g, 0, 200},
			[]byte{opGet}, pfn3(70),
			[]byte{opSetHyp}, pfn3(140), []byte{1},
			[]byte{opWriteAs, g}, pfn3(127), []byte{0x0f, 0xf0, 0x02, 0x00},
			[]byte{opFree, g}, pfn3(150),
			[]byte{opAlloc, 3, 0},
			[]byte{opPut}, pfn3(70),
			[]byte{opRangeOwned, g}, pfn3(64), []byte{0, 0, 1, 0, 0},
			[]byte{opReadInto}, pfn3(127), []byte{0x0f, 0x00, 0x20, 0x00},
		),
		// Two runs back to back: the second starts mid-chunk, so its
		// first chunk is built and the rest stay fresh; DMA-write a
		// fresh page and free a pinned one.
		slices.Concat(
			[]byte{opAllocRun, 1, 0, 37},
			[]byte{opAllocRun, 3, 11, 184},
			[]byte{opWrite}, pfn3(2000), []byte{0, 16, 0, 32},
			[]byte{opGet}, pfn3(1000),
			[]byte{opFree, 3}, pfn3(1000),
			[]byte{opAlloc, 1, 1},
			[]byte{opPut}, pfn3(1000),
			[]byte{opAlloc, 2, 2},
			[]byte{opWriteAs, 1}, pfn3(1500), []byte{0, 0, 0, 8},
		),
		{opAlloc, 1, 3, opAllocRun, 0, 0xff, 0xff, opRangeOwned, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(runPageTable)
}

// TestAllocRunCostsPerChunk: a run's whole chunks are recorded by owner
// alone, so 2^20 frames cost a chunk pointer and an owner per 64 pages
// (about 0.2 MB with slice growth), not 12 MB of page entries.
func TestAllocRunCostsPerChunk(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New()
	first := m.AllocRun(guestA, 1<<20)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1e6 {
		t.Fatalf("AllocRun of 2^20 frames allocated %.2f MB, want under 1 MB", float64(got)/1e6)
	}
	last := first + 1<<20 - 1
	if m.Owner(first) != guestA || m.Owner(last) != guestA || m.Refs(last) != 0 {
		t.Fatalf("run %d..%d: owners %d, %d", first, last, m.Owner(first), m.Owner(last))
	}
}

// built counts the chunks that hold entries.
func built(m *Memory) int {
	n := 0
	for _, c := range m.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// TestReadsLeaveChunksFresh: reads and refused operations (a foreign
// write, an unpinned Put, a foreign Free) build nothing; the first
// change to a page builds its chunk alone.
func TestReadsLeaveChunksFresh(t *testing.T) {
	m := New()
	m.Alloc(guestB, 1)
	first := m.AllocRun(guestA, 4*chunkPages)
	if got := built(m); got != 2 { // the partial chunks at either end
		t.Fatalf("run built %d chunks, want 2", got)
	}
	p := PFN(2 * chunkPages) // inside a whole chunk of the run
	dst := make([]byte, 2*PageSize)
	m.Owner(p)
	m.Refs(p)
	m.HypExclusive(p)
	m.RangeOwned(guestA, first.Base(), 4*chunkPages*PageSize)
	m.ReadInto(p.Base()-PageSize, dst)
	m.Pages(guestA)
	if err := m.WriteAs(guestB, p.Base(), []byte{1}); err != ErrNotOwner {
		t.Fatalf("foreign WriteAs: %v", err)
	}
	if err := m.Put(p); err != ErrZeroRef {
		t.Fatalf("Put of an unpinned page: %v", err)
	}
	if err := m.Free(guestB, p); err != ErrNotOwner {
		t.Fatalf("foreign Free: %v", err)
	}
	if got := built(m); got != 2 {
		t.Fatalf("reads left %d chunks built, want 2", got)
	}
	if err := m.Get(p + chunkPages); err != nil {
		t.Fatal(err)
	}
	if got := built(m); got != 3 {
		t.Fatalf("a pin left %d chunks built, want 3", got)
	}
}
