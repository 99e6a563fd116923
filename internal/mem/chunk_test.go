package mem

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"
)

// Tests of the chunked page table: entries on either side of a chunk
// boundary behave exactly like any other, and the table stays free of
// pointers and allocations on the DMA hot paths.

// Frames on either side of the first chunk boundary. PFN 0 occupies the
// first entry, so Alloc hands out PFN chunkPages as its chunkPages-th page.
const lastOfChunk0, firstOfChunk1 = PFN(chunkPages - 1), PFN(chunkPages)

// allocAcross returns a memory whose guestA pages span the first chunk
// boundary and one page beyond it.
func allocAcross(t *testing.T) *Memory {
	t.Helper()
	m := New()
	pfns := m.Alloc(guestA, chunkPages+1)
	if pfns[len(pfns)-2] != firstOfChunk1 {
		t.Fatalf("PFN sequence: page %d is %d, want %d", len(pfns)-2, pfns[len(pfns)-2], firstOfChunk1)
	}
	return m
}

func TestPageEntryHasNoPointers(t *testing.T) {
	typ := reflect.TypeOf(page{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("page.%s has kind %v; entries must hold no pointers", f.Name, f.Type.Kind())
		}
	}
	if sz := unsafe.Sizeof(page{}); sz != 12 {
		t.Errorf("page entry is %d bytes, want 12", sz)
	}
}

// TestOwnerOutsideEntryRangePanics: a page entry stores its owner in
// 16 bits, so a domain it cannot hold is refused loudly at Alloc and
// Transfer rather than wrapped onto another domain's pages.
func TestOwnerOutsideEntryRangePanics(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	for name, f := range map[string]func(){
		"Alloc":    func() { m.Alloc(DomID(1<<15), 1) },
		"AllocRun": func() { m.AllocRun(DomID(1<<15), 2) },
		"Transfer": func() { m.Transfer(p, guestA, DomID(-1<<15-1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with an out-of-range domain did not panic", name)
				}
			}()
			f()
		}()
	}
	if got := m.Owner(p); got != guestA {
		t.Fatalf("refused Transfer changed the owner to %d", got)
	}
	top := DomID(1<<15 - 1)
	if q := m.AllocOne(top); m.Owner(q) != top {
		t.Fatalf("largest domain reads back as %d", m.Owner(q))
	}
}

func TestNewAllocatesNoChunk(t *testing.T) {
	m := New()
	if len(m.chunks) != 0 {
		t.Fatalf("New allocated %d chunks", len(m.chunks))
	}
	if m.npages != 1 {
		t.Fatalf("fresh table: %d entries", m.npages)
	}
	m.AllocOne(guestA)
	if len(m.chunks) != 1 {
		t.Fatalf("first Alloc left %d chunks, want 1", len(m.chunks))
	}
	m.Alloc(guestA, chunkPages-2)
	if len(m.chunks) != 1 {
		t.Fatalf("a full first chunk holds %d chunks, want 1", len(m.chunks))
	}
	m.AllocOne(guestA)
	if len(m.chunks) != 2 {
		t.Fatalf("crossing the boundary left %d chunks, want 2", len(m.chunks))
	}
}

func TestChunkBoundaryPageOps(t *testing.T) {
	m := allocAcross(t)
	for _, p := range []PFN{lastOfChunk0, firstOfChunk1} {
		if m.Owner(p) != guestA {
			t.Fatalf("page %d owner = %d", p, m.Owner(p))
		}
		if err := m.Get(p); err != nil {
			t.Fatal(err)
		}
		if m.Refs(p) != 1 {
			t.Fatalf("page %d refs = %d", p, m.Refs(p))
		}
		if err := m.Put(p); err != nil {
			t.Fatal(err)
		}
		if err := m.Put(p); err != ErrZeroRef {
			t.Fatalf("page %d underflow err = %v", p, err)
		}
	}
	if err := m.Get(firstOfChunk1); err != nil {
		t.Fatal(err)
	}
	if m.Refs(lastOfChunk0) != 0 {
		t.Fatal("a pin on the next chunk's first page leaked into the previous chunk")
	}
	if m.Owner(m.npages) != DomInvalid || m.Get(m.npages) != ErrNoPage {
		t.Fatal("a frame past the table answered as allocated")
	}
}

// TestEveryFrameHasItsOwnEntry gives each frame of three chunks a
// distinct owner, so two frames sharing an entry, or the chunks laid
// out in a different order than lookup reads them, shows as a wrong
// owner.
func TestEveryFrameHasItsOwnEntry(t *testing.T) {
	m := New()
	pfns := m.Alloc(guestA, 3*chunkPages)
	owner := func(p PFN) DomID { return guestA + 1 + DomID(p) }
	for _, p := range pfns {
		if err := m.Transfer(p, guestA, owner(p)); err != nil {
			t.Fatalf("transfer page %d: %v", p, err)
		}
	}
	for _, p := range pfns {
		entry := m.chunks[int(p)/chunkPages][int(p)%chunkPages]
		if m.Owner(p) != owner(p) || DomID(entry.owner) != owner(p) {
			t.Fatalf("page %d: owner %d, chunk entry owner %d, want %d", p, m.Owner(p), entry.owner, owner(p))
		}
	}
}

func TestChunkBoundaryRanges(t *testing.T) {
	m := allocAcross(t)
	addr := firstOfChunk1.Base() - 8
	if !m.RangeOwned(guestA, addr, 16) {
		t.Fatal("range spanning the chunk boundary not owned")
	}
	want := []byte("0123456789abcdef")
	if err := m.WriteAs(guestA, addr, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := m.ReadInto(addr, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back %q, %v", got, err)
	}

	// A permission failure on the far side of the boundary must not let
	// the near half through.
	if err := m.SetHypExclusive(firstOfChunk1, true); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAs(guestA, addr, make([]byte, 16)); err != ErrHypExclusive {
		t.Fatalf("err = %v, want ErrHypExclusive", err)
	}
	if err := m.Transfer(firstOfChunk1, guestA, guestB); err != nil {
		t.Fatal(err)
	}
	if m.RangeOwned(guestA, addr, 16) {
		t.Fatal("range owned although its second page moved to another domain")
	}
	if err := m.WriteAs(guestA, addr, make([]byte, 16)); err != ErrNotOwner {
		t.Fatalf("err = %v, want ErrNotOwner", err)
	}
	if err := m.ReadInto(addr, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("rejected writes changed the range: %q, %v", got, err)
	}
}

func TestChunkBoundaryReuseZeroes(t *testing.T) {
	m := allocAcross(t)
	for _, p := range []PFN{lastOfChunk0, firstOfChunk1} {
		if err := m.Write(p.Base()+PageSize-2, []byte{0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		if err := m.Free(guestA, p); err != nil {
			t.Fatal(err)
		}
	}
	written := len(m.data)
	for _, want := range []PFN{lastOfChunk0, firstOfChunk1} { // FIFO reuse
		q := m.AllocOne(guestB)
		if q != want {
			t.Fatalf("reallocated %d, want %d", q, want)
		}
		got, err := m.Read(q.Base(), PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, PageSize)) {
			t.Fatalf("reallocated page %d leaked previous contents", q)
		}
	}
	if len(m.data) != written {
		t.Fatalf("reuse grew the data side table from %d to %d pages", written, len(m.data))
	}
}

func TestHotPathsAllocateNothing(t *testing.T) {
	m := allocAcross(t)
	addr := firstOfChunk1.Base() - 8
	m.Write(addr, []byte{1, 2, 3, 4})
	dst := make([]byte, 16)
	run := m.AllocRun(guestA, 3*chunkPages) // run+chunkPages lies in a fresh chunk
	freshAddr := (run + chunkPages).Base() - 8
	for name, f := range map[string]func(){
		"RangeOwned fresh": func() { m.RangeOwned(guestA, freshAddr, 16) },
		"ReadInto fresh":   func() { m.ReadInto(freshAddr, dst) },
		"Get/Put":          func() { m.Get(firstOfChunk1); m.Put(firstOfChunk1) },
		"RangeOwned":       func() { m.RangeOwned(guestA, addr, 16) },
		"ReadInto":         func() { m.ReadInto(addr, dst) },
		"ReadInto unwritten": func() {
			m.ReadInto(firstOfChunk1.Base()+PageSize-8, dst)
		},
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}
