package transport

import (
	"testing"
	"testing/quick"

	"cdna/internal/sim"
)

// directWire connects two endpoints with a lossy, delayed function call.
type directWire struct {
	eng   *sim.Engine
	delay sim.Time
	// dropEvery drops every Nth data segment (0 = lossless).
	dropEvery int
	sent      int
}

func (w *directWire) dataPath(c *Conn) func(*Segment) {
	return func(s *Segment) {
		w.sent++
		if w.dropEvery > 0 && w.sent%w.dropEvery == 0 {
			return // dropped on the floor
		}
		w.eng.After(w.delay, func() { Dispatch(s) })
	}
}

func (w *directWire) ackPath(c *Conn) func(*Segment) {
	return func(s *Segment) {
		w.eng.After(w.delay, func() { Dispatch(s) })
	}
}

func newPair(eng *sim.Engine, dropEvery int) (*Conn, *directWire) {
	c := NewConn(eng, 0, DefaultSegSize, 32)
	w := &directWire{eng: eng, delay: 10 * sim.Microsecond, dropEvery: dropEvery}
	c.AttachSender(w.dataPath(c))
	c.AttachReceiver(w.ackPath(c))
	return c, w
}

func TestLosslessDelivery(t *testing.T) {
	eng := sim.New()
	c, _ := newPair(eng, 0)
	c.StartWindow()
	c.Start()
	eng.Run(50 * sim.Millisecond)
	if c.Delivered.Window() == 0 {
		t.Fatal("nothing delivered")
	}
	if c.Retransmits.Window() != 0 {
		t.Fatalf("lossless run retransmitted %d", c.Retransmits.Window())
	}
	if c.DupDrops.Window() != 0 {
		t.Fatalf("lossless run dropped %d", c.DupDrops.Window())
	}
}

func TestWindowBoundsInFlight(t *testing.T) {
	eng := sim.New()
	c := NewConn(eng, 0, DefaultSegSize, 8)
	// A sender with no receiver: segments vanish; the initial burst is
	// bounded by the slow-start window, not the full window.
	sent := 0
	c.AttachSender(func(s *Segment) { sent++ })
	c.Start()
	eng.Run(sim.Millisecond)
	if sent != InitialCwnd {
		t.Fatalf("sent %d, want initial cwnd %d", sent, InitialCwnd)
	}
	if c.InFlight() != InitialCwnd {
		t.Fatalf("InFlight = %d", c.InFlight())
	}
}

func TestSlowStartRampsToFullWindow(t *testing.T) {
	eng := sim.New()
	c, _ := newPair(eng, 0)
	c.Start()
	eng.Run(20 * sim.Millisecond)
	if c.effWindow() != c.Window {
		t.Fatalf("cwnd %d never reached window %d", c.cwnd, c.Window)
	}
	if c.Delivered.Total() == 0 {
		t.Fatal("nothing delivered during ramp")
	}
}

func TestRecoveryFromDrops(t *testing.T) {
	eng := sim.New()
	c, _ := newPair(eng, 50) // drop every 50th segment
	c.Start()
	eng.Run(200 * sim.Millisecond)
	if c.Retransmits.Total() == 0 {
		t.Fatal("drops occurred but nothing was retransmitted")
	}
	if c.Delivered.Total() == 0 {
		t.Fatal("no delivery despite recovery")
	}
	// In-order delivery invariant: delivered bytes = rcvNext * segSize.
	if c.Delivered.Total() != uint64(c.rcvNext)*uint64(c.SegSize) {
		t.Fatalf("delivered %d bytes != %d in-order segments", c.Delivered.Total(), c.rcvNext)
	}
}

// TestExactlyOnceInOrder: every byte is delivered exactly once in order,
// under randomized drop patterns.
func TestExactlyOnceInOrder(t *testing.T) {
	f := func(dropMod uint8) bool {
		eng := sim.New()
		drop := int(dropMod%37) + 13
		c, _ := newPair(eng, drop)
		c.Start()
		eng.Run(100 * sim.Millisecond)
		return c.Delivered.Total() == uint64(c.rcvNext)*uint64(c.SegSize) && c.rcvNext > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDelayedAckPolicy(t *testing.T) {
	eng := sim.New()
	c, _ := newPair(eng, 0)
	c.Start()
	eng.Run(20 * sim.Millisecond)
	acks := c.AcksSent.Total()
	segs := uint64(c.rcvNext)
	if acks == 0 {
		t.Fatal("no acks")
	}
	ratio := float64(segs) / float64(acks)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("segments per ack = %v, want ~2 (delayed ack)", ratio)
	}
}

func TestFrameBytes(t *testing.T) {
	s := &Segment{Len: DefaultSegSize}
	if s.FrameBytes() != 1514 {
		t.Fatalf("data frame = %d, want 1514", s.FrameBytes())
	}
	a := &Segment{Ack: true}
	if a.FrameBytes() != 66 {
		t.Fatalf("ack frame = %d, want 66", a.FrameBytes())
	}
}

func TestGroupAggregationAndFairness(t *testing.T) {
	eng := sim.New()
	var g Group
	for i := 0; i < 4; i++ {
		c, _ := newPair(eng, 0)
		c.ID = i
		g.Add(c)
	}
	g.StartWindow()
	for _, c := range g.Conns {
		c.Start()
	}
	eng.Run(50 * sim.Millisecond)
	if g.DeliveredBytes() == 0 {
		t.Fatal("no aggregate delivery")
	}
	if fi := g.FairnessIndex(); fi < 0.99 {
		t.Fatalf("fairness = %v for identical conns", fi)
	}
	mbps := g.DeliveredMbps(50 * sim.Millisecond)
	wantMbps := float64(g.DeliveredBytes()) * 8 / 1e6 / 0.050
	if diff := mbps - wantMbps; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("Mbps %v inconsistent with bytes %v", mbps, wantMbps)
	}
}

func TestEmptyGroupFairness(t *testing.T) {
	var g Group
	if g.FairnessIndex() != 1 {
		t.Fatal("empty group fairness should be 1")
	}
}

func TestRTORewindResendsWindow(t *testing.T) {
	eng := sim.New()
	c := NewConn(eng, 0, DefaultSegSize, 4)
	var sent []uint32
	// Black-hole wire: everything is lost.
	c.AttachSender(func(s *Segment) { sent = append(sent, s.Seq) })
	c.Start()
	eng.Run(10 * sim.Millisecond) // > RTO: at least one rewind
	if len(sent) < 8 {
		t.Fatalf("expected a resent window, got sends %v", sent)
	}
	// After the initial burst [0,1,2,3], the rewind resends [0,1,2,3].
	for i := 0; i < 4; i++ {
		if sent[4+i] != uint32(i) {
			t.Fatalf("rewind did not resend from una: %v", sent)
		}
	}
	if c.Retransmits.Total() == 0 {
		t.Fatal("retransmit counter not incremented")
	}
}
