// Package transportbench holds the transport hot-path benchmark in
// plain func(*testing.B) form, shared by `go test -bench` and
// perfbench's probe — the same split internal/sim/simbench uses for the
// event core.
package transportbench

import (
	"testing"

	"cdna/internal/sim"
	"cdna/internal/transport"
)

// Segment measures the pooled segment round trip: one bounded Send of
// two data segments through a zero-CPU wire, the receiver's in-order
// delivery, the delayed ack riding back, and the sender's completion —
// every segment drawn from and returned to a SegPool. The contract is
// zero allocs/op in steady state (the pool's News counter stops
// growing), which is what lets a saturated connection run
// allocation-free end to end.
func Segment(b *testing.B) {
	eng := sim.New()
	pool := transport.NewSegPool()
	c := transport.NewConn(eng, 0, transport.DefaultSegSize, 32)
	c.SetPool(pool)
	var wire sim.FIFO[*transport.Segment]
	deliver := eng.Bind("wire", func() {
		s := wire.Pop()
		transport.Dispatch(s)
		s.Release()
	})
	send := func(s *transport.Segment) {
		wire.Push(s)
		eng.AfterFn(10*sim.Microsecond, deliver)
	}
	c.AttachSender(send)
	c.AttachReceiver(send)
	drain := func() { eng.Run(eng.Now() + sim.Millisecond) }
	// Prime: open the congestion window and fill the pool free lists.
	c.Send(64)
	drain()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Send(2)
		drain()
		// Latency samples accumulate per delivery; Reset keeps their
		// blocks so the measurement loop stays allocation-free.
		c.Latency.Reset()
	}
}
