package intelnic

import (
	"testing"

	"cdna/internal/bus"
	"cdna/internal/ether"
	"cdna/internal/mem"
	"cdna/internal/ring"
	"cdna/internal/sim"
)

const owner = mem.Dom0

type rig struct {
	eng *sim.Engine
	m   *mem.Memory
	n   *NIC
	tx  *ring.Ring
	rx  *ring.Ring
	out []*ether.Frame
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{eng: sim.New(), m: mem.New()}
	b := bus.New(r.eng, bus.DefaultParams())
	pipe := ether.NewPipe(r.eng, 1.0, 0)
	pipe.Connect(ether.PortFunc(func(f *ether.Frame) { r.out = append(r.out, f) }))
	r.n = New(r.eng, b, r.m, pipe, DefaultParams(), ether.MakeMAC(1, 0))
	var err error
	r.tx, err = ring.New("tx", ring.DefaultLayout, r.m.AllocRun(owner, 1).Base(), 128)
	if err != nil {
		t.Fatal(err)
	}
	r.rx, err = ring.New("rx", ring.DefaultLayout, r.m.AllocRun(owner, 1).Base(), 128)
	if err != nil {
		t.Fatal(err)
	}
	r.n.AttachRings(r.tx, r.rx)
	return r
}

func (r *rig) postTx(t *testing.T, frames map[uint32]*ether.Frame, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		idx := r.tx.Prod()
		d := ring.Desc{Addr: r.m.AllocRun(owner, 1).Base(), Len: 1514, Flags: ring.FlagTx}
		if err := r.tx.WriteDesc(r.m, owner, idx, d); err != nil {
			t.Fatal(err)
		}
		r.tx.Publish(1)
		if frames != nil {
			frames[idx] = &ether.Frame{Size: 1514}
		}
	}
	r.n.KickTx(r.tx.Prod())
}

func (r *rig) postRx(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		d := ring.Desc{Addr: r.m.AllocRun(owner, 1).Base(), Len: 1600}
		if err := r.rx.WriteDesc(r.m, owner, r.rx.Prod(), d); err != nil {
			t.Fatal(err)
		}
		r.rx.Publish(1)
	}
	r.n.KickRx(r.rx.Prod())
}

func TestTransmit(t *testing.T) {
	r := newRig(t)
	frames := map[uint32]*ether.Frame{}
	r.n.SetDriver(func(idx uint32) *ether.Frame { return frames[idx] }, nil)
	r.postTx(t, frames, 7)
	r.eng.Run(10 * sim.Millisecond)
	if len(r.out) != 7 {
		t.Fatalf("transmitted %d, want 7", len(r.out))
	}
	if r.tx.Cons() != 7 {
		t.Fatalf("consumer = %d", r.tx.Cons())
	}
}

func TestInterruptAfterWriteback(t *testing.T) {
	r := newRig(t)
	frames := map[uint32]*ether.Frame{}
	irqs := 0
	r.n.SetDriver(func(idx uint32) *ether.Frame { return frames[idx] }, func() { irqs++ })
	r.postTx(t, frames, 3)
	r.eng.Run(10 * sim.Millisecond)
	if irqs == 0 {
		t.Fatal("no interrupt after completions")
	}
	if r.n.Coal.Fires.Total() == 0 {
		t.Fatal("coalescer never fired")
	}
}

func TestSetIRQOverridesLine(t *testing.T) {
	r := newRig(t)
	a, b := 0, 0
	r.n.SetDriver(nil, func() { a++ })
	r.n.SetIRQ(func() { b++ })
	frames := map[uint32]*ether.Frame{}
	r.n.SetDriver(func(idx uint32) *ether.Frame { return frames[idx] }, nil) // nil keeps the IRQ line
	r.postTx(t, frames, 1)
	r.eng.Run(10 * sim.Millisecond)
	if a != 0 || b == 0 {
		t.Fatalf("IRQ routing: old=%d new=%d", a, b)
	}
}

func TestReceiveAnyMAC(t *testing.T) {
	// The conventional NIC in bridged operation accepts every frame —
	// software demultiplexes (§2.1).
	r := newRig(t)
	r.postRx(t, 16)
	r.eng.Run(sim.Millisecond)
	r.n.Receive(&ether.Frame{Dst: ether.MakeMAC(9, 1), Size: 1514})
	r.n.Receive(&ether.Frame{Dst: ether.MakeMAC(9, 2), Size: 300})
	r.eng.Run(10 * sim.Millisecond)
	got := r.n.DrainRx()
	if len(got) != 2 {
		t.Fatalf("DrainRx = %d frames, want 2", len(got))
	}
	if r.n.RxPending() != 0 {
		t.Fatal("pending after drain")
	}
}

func TestRxDropWithoutBuffers(t *testing.T) {
	r := newRig(t)
	r.n.Receive(&ether.Frame{Size: 1514})
	r.eng.Run(sim.Millisecond)
	if r.n.E.RxDrops.Total() != 1 {
		t.Fatalf("drops = %d", r.n.E.RxDrops.Total())
	}
}

func TestTSODefaultEnabled(t *testing.T) {
	if !DefaultParams().TSO {
		t.Fatal("the paper's Intel configuration has TSO enabled")
	}
}
