package core

// §3.4: "This commonality should make it possible to generalize the
// mechanisms within the hypervisor by having the NIC notify the
// hypervisor of its preferred format." These tests run the protection
// engine against a foreign NIC's descriptor layout — different size,
// different field offsets — and verify that validation, sequence
// stamping and NIC-side checking all work without the hypervisor
// interpreting the flags.

import (
	"testing"

	"cdna/internal/mem"
	"cdna/internal/ring"
)

// vendorLayout is a hypothetical third-party NIC's 24-byte descriptor:
// flags first, then length, a vendor-private field (opaque), the
// address, and the sequence number at the tail.
var vendorLayout = ring.Layout{Size: 24, FlagsOff: 0, LenOff: 2, AddrOff: 8, SeqOff: 20}

func TestGenericLayoutThroughProtection(t *testing.T) {
	m := mem.New()
	base := m.AllocRun(guestA, 1).Base()
	r, err := ring.New("vendor.tx", vendorLayout, base, 64)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProtection(m, ModeHypercall)
	if err := p.RegisterRing(guestA, r, 128); err != nil {
		t.Fatal(err)
	}
	checker := NewSeqChecker(128)

	const vendorPrivateFlags = 0xa5c3
	for i := 0; i < 100; i++ {
		buf := m.AllocRun(guestA, 1)
		d := ring.Desc{Addr: buf.Base(), Len: 1514, Flags: vendorPrivateFlags &^ ring.FlagValid}
		if _, err := p.Enqueue(guestA, r, []ring.Desc{d}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		// NIC side: read the slot through the vendor layout and check
		// the sequence number.
		got, err := r.ReadDesc(m, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if !checker.Check(got.Seq) {
			t.Fatalf("seq check failed at %d: %d", i, got.Seq)
		}
		if got.Addr != d.Addr || got.Len != d.Len {
			t.Fatalf("fields corrupted: %+v", got)
		}
		// The hypervisor copied the vendor flags without interpreting
		// them (it only ORs in FlagValid).
		if got.Flags&^ring.FlagValid != vendorPrivateFlags&^ring.FlagValid {
			t.Fatalf("vendor flags not preserved: %#x", got.Flags)
		}
		r.Consume(1)
	}
	// The vendor layout changes nothing about ownership: a descriptor
	// naming another domain's page is still refused.
	victim := m.AllocRun(guestA+1, 1)
	if n, err := p.Enqueue(guestA, r, []ring.Desc{{Addr: victim.Base(), Len: 1514}}); err != ErrForeignMemory || n != 0 {
		t.Fatalf("foreign descriptor through the vendor layout: Enqueue = %d, %v; want 0, ErrForeignMemory", n, err)
	}
}

func TestGenericLayoutStaleDetection(t *testing.T) {
	m := mem.New()
	base := m.AllocRun(guestA, 1).Base()
	r, _ := ring.New("vendor.tx", vendorLayout, base, 8)
	p := NewProtection(m, ModeHypercall)
	p.RegisterRing(guestA, r, 16)
	checker := NewSeqChecker(16)
	// Fill one lap.
	for i := 0; i < 8; i++ {
		buf := m.AllocRun(guestA, 1)
		p.Enqueue(guestA, r, []ring.Desc{{Addr: buf.Base(), Len: 100}})
		d, _ := r.ReadDesc(m, uint32(i))
		if !checker.Check(d.Seq) {
			t.Fatal("setup failed")
		}
		r.Consume(1)
	}
	// Replay slot 0 (stale): its sequence number is one lap old.
	stale, _ := r.ReadDesc(m, 8) // wraps to slot 0
	if checker.Check(stale.Seq) {
		t.Fatal("stale descriptor accepted under vendor layout")
	}
}

func TestLayoutWithoutSeqFieldRejectsNothing(t *testing.T) {
	// A layout with no sequence field models a conventional NIC; the
	// hypervisor still validates ownership but staleness detection is
	// unavailable (this is why CDNA NICs need the field).
	noSeq := ring.Layout{Size: 16, AddrOff: 0, LenOff: 8, FlagsOff: 10, SeqOff: -1}
	m := mem.New()
	base := m.AllocRun(guestA, 1).Base()
	r, err := ring.New("legacy.tx", noSeq, base, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProtection(m, ModeHypercall)
	if err := p.RegisterRing(guestA, r, 32); err != nil {
		t.Fatal(err)
	}
	buf := m.AllocRun(guestA, 1)
	if _, err := p.Enqueue(guestA, r, []ring.Desc{{Addr: buf.Base(), Len: 64}}); err != nil {
		t.Fatal(err)
	}
	d, _ := r.ReadDesc(m, 0)
	if d.Seq != 0 {
		t.Fatal("layout without a seq field must not carry one")
	}
}
