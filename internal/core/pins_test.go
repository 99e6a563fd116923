package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"cdna/internal/mem"
	"cdna/internal/ring"
)

// TestPinWordRoundTrip: one word holds any descriptor's frame span,
// up to the highest PFN and the 17 frames a 16-bit Len can reach.
func TestPinWordRoundTrip(t *testing.T) {
	const maxPFN = mem.PFN(math.MaxUint64 >> mem.PageShift)
	if _, n := mem.RangeSpan(mem.PageSize-1, math.MaxUint16); n != 17 {
		t.Fatalf("a 16-bit Len spans up to %d frames, want 17", n)
	}
	for _, first := range []mem.PFN{1, 2, 1 << 32, maxPFN - 16, maxPFN} {
		for n := 1; n <= 17; n++ {
			if f, k := makePin(first, n).span(); f != first || k != n {
				t.Fatalf("makePin(%#x, %d).span() = %#x, %d", first, n, f, k)
			}
		}
	}
}

// TestEnqueueWrappingRangeRejected: a descriptor whose range wraps past
// the top of the address space is foreign memory, not an empty span
// that pins nothing.
func TestEnqueueWrappingRangeRejected(t *testing.T) {
	m, p, r := newProt(t, ModeHypercall)
	low := m.Alloc(guestA, 3) // what the wrapped range would reach
	d := ring.Desc{Addr: mem.Addr(math.MaxUint64 - mem.PageSize + 1), Len: 0x3000, Flags: ring.FlagTx}
	n, err := p.Enqueue(guestA, r, []ring.Desc{d})
	if err != ErrForeignMemory || n != 0 {
		t.Fatalf("Enqueue = %d, %v; want 0, ErrForeignMemory", n, err)
	}
	if r.Avail() != 0 || p.Pins(r) != 0 || p.PinnedPages.Total() != 0 {
		t.Fatalf("wrapping descriptor published %d, pinned %d", r.Avail(), p.Pins(r))
	}
	for _, pfn := range low {
		if m.Refs(pfn) != 0 {
			t.Fatalf("page %d pinned by a wrapping descriptor", pfn)
		}
	}
}

// TestEnqueueRefusesOutOfOrderBatch: pins are kept by position, so a
// batch must start right after the outstanding ones. A producer index
// moved behind the hypervisor's back is refused, and nothing is pinned
// or published.
func TestEnqueueRefusesOutOfOrderBatch(t *testing.T) {
	m, p, r := newProt(t, ModeHypercall)
	if _, err := p.Enqueue(guestA, r, []ring.Desc{buf(m, guestA)}); err != nil {
		t.Fatal(err)
	}
	r.Publish(1)
	d := buf(m, guestA)
	if n, err := p.Enqueue(guestA, r, []ring.Desc{d}); err != ErrPinOrder || n != 0 {
		t.Fatalf("Enqueue = %d, %v; want 0, ErrPinOrder", n, err)
	}
	if r.Avail() != 2 || p.Pins(r) != 1 || m.Refs(d.Addr.PFN()) != 0 {
		t.Fatalf("refused batch: avail %d, pins %d, refs %d", r.Avail(), p.Pins(r), m.Refs(d.Addr.PFN()))
	}
	// Once the outstanding pins are reaped, the next batch starts anew.
	r.Consume(2)
	if n, err := p.Enqueue(guestA, r, []ring.Desc{d}); err != nil || n != 1 {
		t.Fatalf("Enqueue after reap = %d, %v", n, err)
	}
}

// TestProtectionPinsProperty runs random interleavings of Enqueue,
// consumer advances, ReapNow, producer moves behind the hypervisor's
// back and UnregisterRing against a reference model that keeps each
// pin's ring index explicitly, and checks every page's reference count
// after every step.
func TestProtectionPinsProperty(t *testing.T) {
	const regionPages = 40
	type modelPin struct {
		idx   uint32
		first mem.PFN
		n     int
	}
	for seed := uint64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		m, p, r := newProt(t, ModeHypercall)
		region := m.Alloc(guestA, regionPages)
		if region[regionPages-1] != region[0]+regionPages-1 {
			t.Fatal("non-contiguous allocation")
		}
		foreign := m.AllocRun(guestB, 1)
		refs := map[mem.PFN]int{}
		var pins []modelPin
		reap := func() {
			for len(pins) > 0 && int32(r.Cons()-pins[0].idx) > 0 {
				for i := range pins[0].n {
					refs[pins[0].first+mem.PFN(i)]--
				}
				pins = pins[1:]
			}
		}
		// desc draws a descriptor: mostly 1..17 frames inside the
		// region, sometimes foreign, wrapping or near the top PFN.
		desc := func() (ring.Desc, bool) {
			switch rng.IntN(12) {
			case 0:
				return ring.Desc{Addr: foreign.Base(), Len: 100}, false
			case 1:
				top := mem.Addr(math.MaxUint64 - uint64(rng.IntN(17*mem.PageSize)))
				return ring.Desc{Addr: top, Len: uint16(1 + rng.IntN(math.MaxUint16))}, false
			}
			off := mem.Addr(rng.IntN(mem.PageSize))
			n := 1 + rng.IntN(math.MaxUint16)
			d := ring.Desc{Addr: region[rng.IntN(regionPages-17)].Base() + off, Len: uint16(n)}
			return d, true
		}
		for step := range 300 {
			switch op := rng.IntN(10); {
			case op < 5: // Enqueue a batch of 1..4
				batch := make([]ring.Desc, 1+rng.IntN(4))
				ok := true
				for i := range batch {
					var good bool
					batch[i], good = desc()
					ok = ok && good
				}
				reap()
				var want error
				switch {
				case len(batch) > r.Space():
					want = ErrRingFull
				case !ok:
					want = ErrForeignMemory
				case len(pins) > 0 && r.Prod() != pins[0].idx+uint32(len(pins)):
					want = ErrPinOrder
				}
				prod := r.Prod()
				n, err := p.Enqueue(guestA, r, batch)
				if err != want {
					t.Fatalf("seed %d step %d: Enqueue err = %v, want %v", seed, step, err, want)
				}
				if err != nil {
					if n != 0 || r.Prod() != prod {
						t.Fatalf("seed %d step %d: refused batch published", seed, step)
					}
					break
				}
				for i, d := range batch {
					first, cnt := mem.RangeSpan(d.Addr, int(d.Len))
					for j := range cnt {
						refs[first+mem.PFN(j)]++
					}
					pins = append(pins, modelPin{prod + uint32(i), first, cnt})
				}
			case op < 7: // the NIC consumes some descriptors
				r.Consume(rng.IntN(r.Avail()/2 + 1))
			case op == 7:
				p.ReapNow(r)
				reap()
			case op == 8: // a producer move the hypervisor did not make
				if r.Space() > 0 && rng.IntN(3) == 0 {
					r.Publish(1)
				}
			default: // revoke the ring, then hand it back
				p.UnregisterRing(r)
				for _, pin := range pins {
					for j := range pin.n {
						refs[pin.first+mem.PFN(j)]--
					}
				}
				pins = nil
				if err := p.RegisterRing(guestA, r, 128); err != nil {
					t.Fatal(err)
				}
			}
			if p.Pins(r) != len(pins) {
				t.Fatalf("seed %d step %d: %d pins, model has %d", seed, step, p.Pins(r), len(pins))
			}
			for _, pfn := range region {
				if m.Refs(pfn) != refs[pfn] {
					t.Fatalf("seed %d step %d: page %d has %d refs, model %d", seed, step, pfn, m.Refs(pfn), refs[pfn])
				}
			}
		}
	}
}
