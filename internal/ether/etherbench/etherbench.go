// Package etherbench holds the frame-arena hot-path benchmark in plain
// func(*testing.B) form, shared by `go test -bench` and perfbench's
// probe — the same split internal/sim/simbench uses for the event core.
package etherbench

import (
	"testing"

	"cdna/internal/ether"
	"cdna/internal/sim"
)

// FrameArena measures one pooled frame's full lifecycle per op: arena
// Get, one pipe traversal (serialization + propagation events), and the
// sink's Release returning the frame to the free list. The contract is
// zero allocs/op in steady state — the arena's News counter stops
// growing once the free list reaches working depth, so every frame the
// model layer moves is a recycled one.
func FrameArena(b *testing.B) {
	eng := sim.New()
	a := ether.NewArena()
	p := ether.NewPipe(eng, 10.0, sim.Microsecond)
	p.Connect(ether.PortFunc(func(f *ether.Frame) { f.Release() }))
	src, dst := ether.MakeMAC(1, 0), ether.MakeMAC(2, 0)
	drain := func() { eng.Run(eng.Now() + 10*sim.Second) }
	// Prime the free list to working depth.
	for i := 0; i < 8; i++ {
		p.Send(a.Get(src, dst, 1514, nil))
	}
	drain()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Send(a.Get(src, dst, 1514, nil))
		drain()
	}
}
