// Package topobench holds the switch hot-path benchmark in plain
// func(*testing.B) form, so perfbench's probe can run it through
// testing.Benchmark and `go test -bench` can wrap it — the same
// split internal/sim/simbench uses for the event core.
package topobench

import (
	"testing"

	"cdna/internal/ether"
	"cdna/internal/sim"
	"cdna/internal/topo"
)

// Forward measures one store-and-forward traversal per op: ingress
// Input → forwarding decision → bounded egress FIFO → line-rate
// serialization → delivery (three to four pooled events). The hot path
// must report zero allocs/op: pending frames ride a reused FIFO,
// callbacks are bound at construction, and the event core pools its
// events.
func Forward(b *testing.B) {
	eng := sim.New()
	p := topo.DefaultParams()
	sw := topo.New(eng, p)
	const n = 8
	macs := make([]ether.MAC, n)
	for i := 0; i < n; i++ {
		l := ether.NewDuplex(eng, p.LinkGbps, p.PropDelay)
		sw.AddPort(l.AtoB, l.BtoA)
		l.BtoA.Connect(ether.PortFunc(func(f *ether.Frame) {}))
		macs[i] = ether.MakeMAC(5, i)
	}
	// Learn every station, then prime queues and pools to working depth.
	for i := 0; i < n; i++ {
		sw.Input(i, &ether.Frame{Src: macs[i], Dst: ether.Broadcast, Size: 60})
	}
	drain := func() { eng.Run(eng.Now() + 10*sim.Second) }
	drain()
	f := &ether.Frame{Src: macs[0], Dst: macs[4], Size: 1514}
	for i := 0; i < 64; i++ {
		sw.Input(0, f)
	}
	drain()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Input(0, f)
		drain()
	}
}
