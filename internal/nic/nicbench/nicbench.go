// Package nicbench holds the NIC data-engine hot-path benchmark in
// plain func(*testing.B) form, shared by `go test -bench` and
// perfbench's probe — the same split internal/sim/simbench uses for the
// event core.
package nicbench

import (
	"testing"

	"cdna/internal/bus"
	"cdna/internal/ether"
	"cdna/internal/mem"
	"cdna/internal/nic"
	"cdna/internal/ring"
	"cdna/internal/sim"
)

// TxPipeline measures one transmitted packet per op through the full
// device pipeline: descriptor write + publish + doorbell, descriptor
// fetch DMA, NIC processing, payload DMA, wire transmit, consumer-index
// writeback, and the driver-style reap releasing the in-flight frame
// back to its arena. The contract is zero allocs/op in steady state:
// the frame comes from a recycled arena slot, the pipeline stages ride
// pooled events and reused job FIFOs, and the reap never materializes a
// slice.
func TxPipeline(b *testing.B) {
	const guest = mem.Dom0 + 1
	eng := sim.New()
	m := mem.New()
	bs := bus.New(eng, bus.DefaultParams())
	out := ether.NewPipe(eng, 1.0, 0)
	out.Connect(ether.PortFunc(func(f *ether.Frame) { f.Release() }))
	e := nic.NewEngine(eng, bs, m, out, nic.DefaultParams())
	tx, err := ring.New("tx", ring.DefaultLayout, m.AllocOne(guest).Base(), 256)
	if err != nil {
		b.Fatal(err)
	}
	rx, err := ring.New("rx", ring.DefaultLayout, m.AllocOne(guest).Base(), 256)
	if err != nil {
		b.Fatal(err)
	}
	qid := e.AddQueue(tx, rx)
	arena := ether.NewArena()
	var slots [256]*ether.Frame
	e.Hooks = nic.Hooks{
		LookupTx: func(q int, idx uint32) *ether.Frame { return slots[idx%256] },
	}
	buf := m.AllocOne(guest).Base()
	src, dst := ether.MakeMAC(1, 1), ether.MakeMAC(9, 9)
	drain := func() { eng.Run(eng.Now() + 10*sim.Second) }
	post := func() {
		idx := tx.Prod()
		slots[idx%256] = arena.Get(src, dst, 1514, nil)
		d := ring.Desc{Addr: buf, Len: 1514, Flags: ring.FlagTx | ring.FlagValid}
		if err := tx.WriteDesc(m, guest, idx, d); err != nil {
			b.Fatal(err)
		}
		if err := tx.Publish(1); err != nil {
			b.Fatal(err)
		}
		e.KickTx(qid, tx.Prod())
	}
	var reaped uint32
	reap := func() {
		for ; int32(tx.Cons()-reaped) > 0; reaped++ {
			i := reaped % 256
			slots[i].Release()
			slots[i] = nil
		}
	}
	// Prime the arena, the descriptor-fetch path, and the job FIFOs.
	for i := 0; i < 32; i++ {
		post()
		drain()
		reap()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
		drain()
		reap()
	}
}
