package mem

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

const guestA, guestB = Dom0 + 1, Dom0 + 2

func TestAllocOwnership(t *testing.T) {
	m := New()
	pfns := m.Alloc(guestA, 3)
	if len(pfns) != 3 {
		t.Fatalf("Alloc returned %d pages", len(pfns))
	}
	for _, p := range pfns {
		if m.Owner(p) != guestA {
			t.Fatalf("page %d owner = %d", p, m.Owner(p))
		}
	}
	if m.Pages(guestA) != 3 {
		t.Fatalf("Pages = %d", m.Pages(guestA))
	}
}

// TestAllocRunSkipsFreedFrames: a run is fresh frames only, so it is
// contiguous and wholly dom's even while a freed frame waits for reuse.
func TestAllocRunSkipsFreedFrames(t *testing.T) {
	m := New()
	a := m.Alloc(guestA, 4)
	if err := m.Free(guestA, a[1]); err != nil {
		t.Fatal(err)
	}
	first := m.AllocRun(guestB, 3)
	if first != a[3]+1 {
		t.Fatalf("run starts at %d, want the first fresh frame %d", first, a[3]+1)
	}
	if !m.RangeOwned(guestB, first.Base(), 3*PageSize) || m.Pages(guestB) != 3 {
		t.Fatalf("run %d+3 is not wholly guestB's", first)
	}
	if q := m.AllocOne(guestB); q != a[1] {
		t.Fatalf("Alloc after the run took %d, want the freed frame %d", q, a[1])
	}
}

func TestPFNZeroNeverAllocated(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if p == 0 {
		t.Fatal("PFN 0 must never be allocated (Addr 0 is reserved invalid)")
	}
}

func TestFreeAndReuse(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.Free(guestA, p); err != nil {
		t.Fatal(err)
	}
	if m.Owner(p) != DomInvalid {
		t.Fatal("freed page retains owner")
	}
	q := m.AllocOne(guestB)
	if q != p {
		t.Fatalf("free page not reused: got %d want %d", q, p)
	}
	if m.Owner(q) != guestB {
		t.Fatal("reused page has wrong owner")
	}
}

func TestFreeWrongOwner(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.Free(guestB, p); err != ErrNotOwner {
		t.Fatalf("err = %v, want ErrNotOwner", err)
	}
}

func TestDoubleFree(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.Free(guestA, p); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(guestA, p); err != ErrFreed {
		t.Fatalf("double free err = %v, want ErrFreed", err)
	}
}

// TestNoReallocationWhilePinned is the paper's §3.3 guarantee: a page
// freed during an outstanding DMA must not be handed to another domain
// until the reference is dropped.
func TestNoReallocationWhilePinned(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.Get(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(guestA, p); err != nil {
		t.Fatal(err)
	}
	q := m.AllocOne(guestB)
	if q == p {
		t.Fatal("pinned page was reallocated")
	}
	if err := m.Put(p); err != nil {
		t.Fatal(err)
	}
	r := m.AllocOne(guestB)
	if r != p {
		t.Fatalf("unpinned freed page should now be reusable: got %d want %d", r, p)
	}
}

func TestPutUnderflow(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.Put(p); err != ErrZeroRef {
		t.Fatalf("err = %v, want ErrZeroRef", err)
	}
}

func TestTransfer(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.Transfer(p, guestA, Dom0); err != nil {
		t.Fatal(err)
	}
	if m.Owner(p) != Dom0 {
		t.Fatal("transfer did not change owner")
	}
	if err := m.Transfer(p, guestA, guestB); err != ErrNotOwner {
		t.Fatalf("err = %v, want ErrNotOwner", err)
	}
}

func TestTransferPinnedFails(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	m.Get(p)
	if err := m.Transfer(p, guestA, Dom0); err != ErrPageBusy {
		t.Fatalf("err = %v, want ErrPageBusy", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	addr := p.Base() + 100
	want := []byte("hello, descriptor ring")
	if err := m.Write(addr, want); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(addr, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q", got)
	}
}

func TestReadUntouchedPageIsZero(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	got, err := m.Read(p.Base(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("untouched page must read as zeros")
		}
	}
}

func TestWriteCrossesPages(t *testing.T) {
	m := New()
	pfns := m.Alloc(guestA, 2)
	if pfns[1] != pfns[0]+1 {
		t.Skip("allocator returned non-contiguous pages")
	}
	addr := pfns[0].Base() + PageSize - 4
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := m.Write(addr, want); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(addr, 8)
	if !bytes.Equal(got, want) {
		t.Fatalf("cross-page read = %v", got)
	}
}

func TestReuseZeroesData(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	m.Write(p.Base(), []byte{0xde, 0xad})
	m.Free(guestA, p)
	q := m.AllocOne(guestB)
	if q != p {
		t.Skip("allocator did not reuse the page")
	}
	got, _ := m.Read(q.Base(), 2)
	if got[0] != 0 || got[1] != 0 {
		t.Fatal("reallocated page leaked previous contents")
	}
}

func TestWriteAsOwnership(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.WriteAs(guestB, p.Base(), []byte{1}); err != ErrNotOwner {
		t.Fatalf("cross-domain CPU write err = %v, want ErrNotOwner", err)
	}
	if err := m.WriteAs(guestA, p.Base(), []byte{1}); err != nil {
		t.Fatalf("owner write failed: %v", err)
	}
	if err := m.WriteAs(DomHyp, p.Base(), []byte{2}); err != nil {
		t.Fatalf("hypervisor write failed: %v", err)
	}
}

func TestHypExclusiveRing(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.SetHypExclusive(p, true); err != nil {
		t.Fatal(err)
	}
	if !m.HypExclusive(p) {
		t.Fatal("HypExclusive not set")
	}
	if err := m.WriteAs(guestA, p.Base(), []byte{1}); err != ErrHypExclusive {
		t.Fatalf("guest write to hyp-exclusive ring err = %v, want ErrHypExclusive", err)
	}
	if err := m.WriteAs(DomHyp, p.Base(), []byte{1}); err != nil {
		t.Fatalf("hypervisor must retain write access: %v", err)
	}
	m.SetHypExclusive(p, false)
	if err := m.WriteAs(guestA, p.Base(), []byte{1}); err != nil {
		t.Fatalf("write after clearing exclusivity failed: %v", err)
	}
}

func TestRangeOwned(t *testing.T) {
	m := New()
	a := m.AllocOne(guestA)
	b := m.AllocOne(guestB)
	if !m.RangeOwned(guestA, a.Base(), PageSize) {
		t.Fatal("own page should be owned")
	}
	if m.RangeOwned(guestA, b.Base(), 1) {
		t.Fatal("foreign page must not validate")
	}
	if m.RangeOwned(guestA, a.Base(), 0) {
		t.Fatal("empty range must not validate")
	}
	// A range spilling from an owned page into a foreign page must fail.
	if b == a+1 && m.RangeOwned(guestA, a.Base()+PageSize-1, 2) {
		t.Fatal("range crossing into foreign page validated")
	}
	m.Free(guestA, a)
	if m.RangeOwned(guestA, a.Base(), 8) {
		t.Fatal("freed page must not validate")
	}
}

// TestRangeWrapsAddressSpace: a range that runs past the top of the
// 64-bit address space spans nothing and is owned by no one, so a
// descriptor cannot pass validation by wrapping around to low frames.
func TestRangeWrapsAddressSpace(t *testing.T) {
	m := New()
	for range 4 {
		m.AllocOne(guestA) // low frames the wrapped range would reach
	}
	top := Addr(math.MaxUint64 - PageSize + 1)
	for _, tc := range []struct {
		addr Addr
		n    int
	}{
		{top, 0x3000},
		{top, PageSize + 1},
		{Addr(math.MaxUint64), 2},
		{Addr(math.MaxUint64 - 99), 1514},
	} {
		if m.RangeOwned(guestA, tc.addr, tc.n) {
			t.Errorf("RangeOwned(%#x, %d) validated a wrapping range", uint64(tc.addr), tc.n)
		}
		if first, n := RangeSpan(tc.addr, tc.n); first != 0 || n != 0 {
			t.Errorf("RangeSpan(%#x, %d) = %d, %d; want 0, 0", uint64(tc.addr), tc.n, first, n)
		}
		if RangePFNs(tc.addr, tc.n) != nil {
			t.Errorf("RangePFNs(%#x, %d) is not empty", uint64(tc.addr), tc.n)
		}
	}
	// A range ending exactly at the top does not wrap.
	if first, n := RangeSpan(top, PageSize); first != top.PFN() || n != 1 {
		t.Errorf("RangeSpan(top page) = %d, %d; want %d, 1", first, n, top.PFN())
	}
	if first, n := RangeSpan(top-1, 2); first != top.PFN()-1 || n != 2 {
		t.Errorf("RangeSpan(across the last boundary) = %d, %d; want %d, 2", first, n, top.PFN()-1)
	}
}

func TestRangePFNs(t *testing.T) {
	got := RangePFNs(Addr(PageSize-1), 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("RangePFNs = %v", got)
	}
	if RangePFNs(0, 0) != nil {
		t.Fatal("empty range should return nil")
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(5*PageSize + 123)
	if a.PFN() != 5 || a.Offset() != 123 {
		t.Fatalf("PFN=%d Offset=%d", a.PFN(), a.Offset())
	}
	if PFN(5).Base() != Addr(5*PageSize) {
		t.Fatalf("Base = %d", PFN(5).Base())
	}
}

// Property: refcounts never go negative and a pinned+freed page is never
// handed out, across random operation sequences.
func TestRefcountProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		m := New()
		p := m.AllocOne(guestA)
		refs := 0
		freed := false
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if m.Get(p) == nil {
					refs++
				}
			case 1:
				err := m.Put(p)
				if refs == 0 && err != ErrZeroRef {
					return false
				}
				if refs > 0 {
					if err != nil {
						return false
					}
					refs--
				}
			case 2:
				if !freed {
					if m.Free(guestA, p) != nil {
						return false
					}
					freed = true
				}
			}
			if m.Refs(p) != refs {
				return false
			}
			if freed && refs > 0 {
				if q := m.AllocOne(guestB); q == p {
					return false
				}
			}
			if freed {
				break // after free, only Get/Put on pinned page remain meaningful
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
