package core

import (
	"testing"

	"cdna/internal/mem"
	"cdna/internal/ring"
)

const (
	guestA = mem.Dom0 + 1
	guestB = mem.Dom0 + 2
)

func newProt(t *testing.T, mode Mode) (*mem.Memory, *Protection, *ring.Ring) {
	t.Helper()
	m := mem.New()
	base := m.Alloc(guestA, 1)[0].Base()
	r, err := ring.New("tx", ring.DefaultLayout, base, 64)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProtection(m, mode)
	if err := p.RegisterRing(guestA, r, 128); err != nil {
		t.Fatal(err)
	}
	return m, p, r
}

func buf(m *mem.Memory, dom mem.DomID) ring.Desc {
	pfn := m.Alloc(dom, 1)[0]
	return ring.Desc{Addr: pfn.Base(), Len: 1514, Flags: ring.FlagTx}
}

func TestEnqueueValidOwned(t *testing.T) {
	m, p, r := newProt(t, ModeHypercall)
	d := buf(m, guestA)
	n, err := p.Enqueue(guestA, r, []ring.Desc{d})
	if err != nil || n != 1 {
		t.Fatalf("Enqueue = %d, %v", n, err)
	}
	if r.Avail() != 1 {
		t.Fatal("descriptor not published")
	}
	if m.Refs(d.Addr.PFN()) != 1 {
		t.Fatal("page not pinned")
	}
	// The descriptor in memory carries seq 0 and FlagValid.
	got, err := r.ReadDesc(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 0 || got.Flags&ring.FlagValid == 0 || got.Addr != d.Addr {
		t.Fatalf("on-ring descriptor: %+v", got)
	}
}

// TestEnqueueForeignMemoryRejected is the paper's core protection claim:
// a guest cannot direct the NIC at another domain's memory.
func TestEnqueueForeignMemoryRejected(t *testing.T) {
	m, p, r := newProt(t, ModeHypercall)
	victim := buf(m, guestB)
	n, err := p.Enqueue(guestA, r, []ring.Desc{victim})
	if err != ErrForeignMemory || n != 0 {
		t.Fatalf("Enqueue = %d, %v; want 0, ErrForeignMemory", n, err)
	}
	if r.Avail() != 0 {
		t.Fatal("rejected descriptor was published")
	}
	if p.Rejected.Total() != 1 {
		t.Fatalf("Rejected = %d", p.Rejected.Total())
	}
}

func TestEnqueueBatchAllOrNothing(t *testing.T) {
	m, p, r := newProt(t, ModeHypercall)
	good := buf(m, guestA)
	bad := buf(m, guestB)
	n, err := p.Enqueue(guestA, r, []ring.Desc{good, bad})
	if err != ErrForeignMemory || n != 0 {
		t.Fatalf("Enqueue = %d, %v", n, err)
	}
	if r.Avail() != 0 || m.Refs(good.Addr.PFN()) != 0 {
		t.Fatal("partial batch leaked pins or publishes")
	}
}

func TestEnqueueWrongRingOwner(t *testing.T) {
	m, p, r := newProt(t, ModeHypercall)
	d := buf(m, guestB)
	if _, err := p.Enqueue(guestB, r, []ring.Desc{d}); err != ErrNotRingOwner {
		t.Fatalf("err = %v, want ErrNotRingOwner", err)
	}
}

func TestEnqueueZeroLength(t *testing.T) {
	m, p, r := newProt(t, ModeHypercall)
	d := buf(m, guestA)
	d.Len = 0
	if _, err := p.Enqueue(guestA, r, []ring.Desc{d}); err != ErrZeroLength {
		t.Fatalf("err = %v, want ErrZeroLength", err)
	}
}

func TestEnqueueRingFull(t *testing.T) {
	m, p, r := newProt(t, ModeHypercall)
	descs := make([]ring.Desc, 65)
	for i := range descs {
		descs[i] = buf(m, guestA)
	}
	if _, err := p.Enqueue(guestA, r, descs); err != ErrRingFull {
		t.Fatalf("err = %v, want ErrRingFull", err)
	}
}

func TestFreedPageRejected(t *testing.T) {
	m, p, r := newProt(t, ModeHypercall)
	d := buf(m, guestA)
	m.Free(guestA, d.Addr.PFN())
	if _, err := p.Enqueue(guestA, r, []ring.Desc{d}); err != ErrForeignMemory {
		t.Fatalf("err = %v, want ErrForeignMemory", err)
	}
}

// TestFreeDuringDMADelaysReallocation exercises §3.3's central scenario:
// the guest frees a page right after enqueuing a DMA descriptor for it.
// The pin must keep the page from being reallocated until the NIC
// consumes the descriptor and the hypervisor reaps it.
func TestFreeDuringDMADelaysReallocation(t *testing.T) {
	m, p, r := newProt(t, ModeHypercall)
	d := buf(m, guestA)
	if _, err := p.Enqueue(guestA, r, []ring.Desc{d}); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(guestA, d.Addr.PFN()); err != nil {
		t.Fatal(err)
	}
	if q := m.Alloc(guestB, 1)[0]; q == d.Addr.PFN() {
		t.Fatal("page reallocated while DMA outstanding")
	}
	// NIC consumes the descriptor; the next enqueue lazily reaps.
	r.Consume(1)
	d2 := buf(m, guestA)
	if _, err := p.Enqueue(guestA, r, []ring.Desc{d2}); err != nil {
		t.Fatal(err)
	}
	if p.Reaped.Total() != 1 {
		t.Fatalf("Reaped = %d, want 1", p.Reaped.Total())
	}
	if m.Refs(d.Addr.PFN()) != 0 {
		t.Fatal("pin not dropped after reap")
	}
	if q := m.Alloc(guestB, 1)[0]; q != d.Addr.PFN() {
		t.Fatal("page should be reusable after reap")
	}
}

func TestReapNow(t *testing.T) {
	m, p, r := newProt(t, ModeHypercall)
	d := buf(m, guestA)
	p.Enqueue(guestA, r, []ring.Desc{d})
	r.Consume(1)
	p.ReapNow(r)
	if m.Refs(d.Addr.PFN()) != 0 {
		t.Fatal("ReapNow did not unpin")
	}
}

func TestMultiPageDescriptorPinsAllPages(t *testing.T) {
	m, p, r := newProt(t, ModeHypercall)
	pfns := m.Alloc(guestA, 2)
	if pfns[1] != pfns[0]+1 {
		t.Skip("non-contiguous allocation")
	}
	d := ring.Desc{Addr: pfns[0].Base() + mem.PageSize - 100, Len: 400}
	if _, err := p.Enqueue(guestA, r, []ring.Desc{d}); err != nil {
		t.Fatal(err)
	}
	if m.Refs(pfns[0]) != 1 || m.Refs(pfns[1]) != 1 {
		t.Fatalf("refs = %d, %d; want 1, 1", m.Refs(pfns[0]), m.Refs(pfns[1]))
	}
}

func TestGuestCannotForgeEnqueuedDescriptor(t *testing.T) {
	m, p, r := newProt(t, ModeHypercall)
	d := buf(m, guestA)
	p.Enqueue(guestA, r, []ring.Desc{d})
	// The guest tries to rewrite slot 0 to point at guestB's memory.
	evil := ring.Desc{Addr: buf(m, guestB).Addr, Len: 1514, Seq: 0, Flags: ring.FlagValid}
	err := r.WriteDesc(m, guestA, 0, evil)
	if err != mem.ErrHypExclusive {
		t.Fatalf("guest descriptor forge err = %v, want ErrHypExclusive", err)
	}
}

func TestUnregisterReleasesEverything(t *testing.T) {
	m, p, r := newProt(t, ModeHypercall)
	d := buf(m, guestA)
	p.Enqueue(guestA, r, []ring.Desc{d})
	p.UnregisterRing(r)
	if m.Refs(d.Addr.PFN()) != 0 {
		t.Fatal("unregister leaked pins")
	}
	if m.HypExclusive(r.Base.PFN()) {
		t.Fatal("unregister left ring hyp-exclusive")
	}
	if p.Registered(r) {
		t.Fatal("ring still registered")
	}
	if _, err := p.Enqueue(guestA, r, []ring.Desc{buf(m, guestA)}); err != ErrNotRingOwner {
		t.Fatalf("enqueue on unregistered ring err = %v", err)
	}
}

func TestRegisterRingForeignMemory(t *testing.T) {
	m := mem.New()
	base := m.Alloc(guestB, 1)[0].Base()
	r, _ := ring.New("tx", ring.DefaultLayout, base, 64)
	p := NewProtection(m, ModeHypercall)
	if err := p.RegisterRing(guestA, r, 128); err != ErrForeignMemory {
		t.Fatalf("err = %v, want ErrForeignMemory", err)
	}
}

func TestRegisterRingDuplicate(t *testing.T) {
	_, p, r := newProt(t, ModeHypercall)
	if err := p.RegisterRing(guestA, r, 128); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestDirectEnqueueSkipsValidation(t *testing.T) {
	m, p, r := newProt(t, ModeOff)
	// With protection off a guest CAN point the NIC at foreign memory —
	// this is the vulnerability the mechanism exists to close.
	victim := buf(m, guestB)
	d := ring.Desc{Addr: victim.Addr, Len: 1514} // references guestB's page
	// The ring itself is in guestA memory and not hyp-exclusive in ModeOff.
	n, err := p.DirectEnqueue(guestA, r, []ring.Desc{d})
	if err != nil || n != 1 {
		t.Fatalf("DirectEnqueue = %d, %v", n, err)
	}
	if m.Refs(victim.Addr.PFN()) != 0 {
		t.Fatal("DirectEnqueue must not pin")
	}
}

func TestModeString(t *testing.T) {
	if ModeHypercall.String() != "hypercall" || ModeIOMMU.String() != "iommu" || ModeOff.String() != "off" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode must still format")
	}
}
