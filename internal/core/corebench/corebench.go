// Package corebench holds the guest DMA-protection hot-path benchmark
// in plain func(*testing.B) form, shared by `go test -bench` and
// perfbench's probe — the same split internal/sim/simbench uses for the
// event core.
package corebench

import (
	"testing"

	"cdna/internal/core"
	"cdna/internal/mem"
	"cdna/internal/ring"
)

// GuestDMA measures one protected descriptor enqueue per op through the
// paper's hypercall mechanism (§3.3): lazy reap of the previous
// descriptor's page pins, ownership validation of the referenced range,
// page pinning, sequence stamping, the hypervisor-exclusive descriptor
// write, and publish. The contract is zero allocs/op in steady state:
// pins ride a reused FIFO as contiguous frame spans, and page
// refcounting is an array index per page.
func GuestDMA(b *testing.B) {
	enq, err := NewGuestDMA()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enq(); err != nil {
			b.Fatal(err)
		}
	}
}

// NewGuestDMA builds the protected transmit ring GuestDMA drives, primes
// its pin FIFO and ring into steady state, and returns one op: a
// hypercall enqueue of one descriptor followed by a NIC-style consumer
// writeback, so the next enqueue's lazy reap drops this descriptor's
// pins.
func NewGuestDMA() (func() error, error) {
	const guest = mem.Dom0 + 1
	m := mem.New()
	p := core.NewProtection(m, core.ModeHypercall)
	r, err := ring.New("tx", ring.DefaultLayout, m.AllocOne(guest).Base(), 256)
	if err != nil {
		return nil, err
	}
	if err := p.RegisterRing(guest, r, 1<<16); err != nil {
		return nil, err
	}
	buf := m.AllocOne(guest).Base()
	descs := [1]ring.Desc{{Addr: buf, Len: 1514, Flags: ring.FlagTx}}
	enq := func() error {
		if _, err := p.Enqueue(guest, r, descs[:]); err != nil {
			return err
		}
		r.Consume(1)
		return nil
	}
	for i := 0; i < 32; i++ {
		if err := enq(); err != nil {
			return nil, err
		}
	}
	return enq, nil
}
