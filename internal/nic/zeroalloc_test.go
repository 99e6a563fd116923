//go:build !race

package nic_test

import (
	"testing"

	"cdna/internal/bus"
	"cdna/internal/ether"
	"cdna/internal/mem"
	"cdna/internal/nic"
	"cdna/internal/ring"
	"cdna/internal/sim"
)

// One packet through the full transmit pipeline — descriptor publish,
// doorbell, fetch DMA, processing, payload DMA, wire, writeback, reap —
// must be allocation-free in steady state: the frame is a recycled
// arena slot and the stage jobs ride reused FIFOs. Race builds are
// excluded (the detector's instrumentation allocates).
func TestTxPipelineZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const guest = mem.Dom0 + 1
	eng := sim.New()
	m := mem.New()
	bs := bus.New(eng, bus.DefaultParams())
	out := ether.NewPipe(eng, 1.0, 0)
	out.Connect(ether.PortFunc(func(f *ether.Frame) { f.Release() }))
	e := nic.NewEngine(eng, bs, m, out, nic.DefaultParams())
	tx, err := ring.New("tx", ring.DefaultLayout, m.AllocRun(guest, 1).Base(), 256)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := ring.New("rx", ring.DefaultLayout, m.AllocRun(guest, 1).Base(), 256)
	if err != nil {
		t.Fatal(err)
	}
	qid := e.AddQueue(tx, rx)
	arena := ether.NewArena()
	var slots [256]*ether.Frame
	e.Hooks = nic.Hooks{
		LookupTx: func(q int, idx uint32) *ether.Frame { return slots[idx%256] },
	}
	buf := m.AllocRun(guest, 1).Base()
	src, dst := ether.MakeMAC(1, 1), ether.MakeMAC(9, 9)
	drain := func() { eng.Run(eng.Now() + sim.Second) }
	var reaped uint32
	step := func() {
		idx := tx.Prod()
		slots[idx%256] = arena.Get(src, dst, 1514, nil)
		d := ring.Desc{Addr: buf, Len: 1514, Flags: ring.FlagTx | ring.FlagValid}
		if err := tx.WriteDesc(m, guest, idx, d); err != nil {
			t.Fatal(err)
		}
		if err := tx.Publish(1); err != nil {
			t.Fatal(err)
		}
		e.KickTx(qid, tx.Prod())
		drain()
		for ; int32(tx.Cons()-reaped) > 0; reaped++ {
			i := reaped % 256
			slots[i].Release()
			slots[i] = nil
		}
	}
	for i := 0; i < 32; i++ {
		step()
	}

	news := arena.News
	if a := testing.AllocsPerRun(200, step); a != 0 {
		t.Fatalf("steady-state tx pipeline allocates %.1f/op, want 0", a)
	}
	if arena.News != news {
		t.Fatalf("arena missed its free list in steady state: News %d -> %d", news, arena.News)
	}
}
