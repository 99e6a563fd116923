package transport

import (
	"math"
	"testing"

	"cdna/internal/sim"
)

// TestBoundedSendCompletes: a Send budget transmits exactly that many
// segments and fires OnSendComplete once when fully acknowledged.
func TestBoundedSendCompletes(t *testing.T) {
	eng := sim.New()
	c, w := newPair(eng, 0)
	completions := 0
	c.OnSendComplete = func() { completions++ }
	c.Send(4)
	eng.Run(50 * sim.Millisecond)
	if completions != 1 {
		t.Fatalf("OnSendComplete fired %d times, want 1", completions)
	}
	if w.sent != 4 {
		t.Fatalf("sent %d segments, want exactly the budget of 4", w.sent)
	}
	if c.InFlight() != 0 {
		t.Fatalf("in-flight %d after completion", c.InFlight())
	}
	if c.rtoTimer.Armed() {
		t.Fatal("retransmit timer still armed after a completed bounded send")
	}
}

// TestExpectDeliveryFlushesFinalAck: an odd-sized message would stall
// on the delayed-ack policy (and complete only via RTO) unless the
// delivery mark flushes the final ack. The mark must also fire OnMark
// exactly once.
func TestExpectDeliveryFlushesFinalAck(t *testing.T) {
	eng := sim.New()
	c, _ := newPair(eng, 0)
	marks := 0
	done := sim.Time(0)
	c.OnMark = func() { marks++ }
	c.OnSendComplete = func() { done = eng.Now() }
	c.ExpectDelivery(5)
	c.Send(5) // odd: the 5th segment is below the delayed-ack threshold
	eng.Run(50 * sim.Millisecond)
	if marks != 1 {
		t.Fatalf("OnMark fired %d times, want 1", marks)
	}
	if done == 0 {
		t.Fatal("bounded send never completed")
	}
	if done >= c.RTO {
		t.Fatalf("completion at %v waited for the RTO (%v): final ack was not flushed", done, c.RTO)
	}
}

// TestSendExtendsBudget: a second Send inside OnSendComplete chains the
// next message, and completion fires once per budget exhaustion.
func TestSendExtendsBudget(t *testing.T) {
	eng := sim.New()
	c, _ := newPair(eng, 0)
	completions := 0
	c.OnSendComplete = func() {
		completions++
		if completions < 3 {
			c.ExpectDelivery(4)
			c.Send(4)
		}
	}
	c.ExpectDelivery(4)
	c.Send(4)
	eng.Run(50 * sim.Millisecond)
	if completions != 3 {
		t.Fatalf("completions = %d, want 3 chained messages", completions)
	}
	if got := uint64(c.rcvNext); got != 12 {
		t.Fatalf("delivered %d segments, want 12", got)
	}
}

// TestPauseResume: a paused sender stops transmitting; resume picks the
// stream back up.
func TestPauseResume(t *testing.T) {
	eng := sim.New()
	c, w := newPair(eng, 0)
	c.Start()
	eng.Run(5 * sim.Millisecond)
	c.Pause()
	eng.Run(10 * sim.Millisecond)
	atPause := w.sent
	eng.Run(20 * sim.Millisecond)
	if w.sent != atPause {
		t.Fatalf("paused sender transmitted %d new segments", w.sent-atPause)
	}
	c.Resume()
	eng.Run(40 * sim.Millisecond)
	if w.sent == atPause {
		t.Fatal("resumed sender never transmitted")
	}
}

// TestResetSlowStart: after the window has ramped, a reset returns the
// effective window to the initial slow-start value.
func TestResetSlowStart(t *testing.T) {
	eng := sim.New()
	c, _ := newPair(eng, 0)
	c.Start()
	eng.Run(20 * sim.Millisecond)
	if c.effWindow() != c.Window {
		t.Fatalf("cwnd never ramped: %d", c.effWindow())
	}
	c.ResetSlowStart()
	if c.effWindow() != InitialCwnd {
		t.Fatalf("effWindow after reset = %d, want %d", c.effWindow(), InitialCwnd)
	}
}

// TestGroupEmptyAndZeroGuards: churn workloads can end a measurement
// window with no connections or no completed samples; every aggregate
// must degrade to a finite default, never NaN/Inf.
func TestGroupEmptyAndZeroGuards(t *testing.T) {
	var g Group
	if v := g.DeliveredMbps(sim.Second); v != 0 {
		t.Fatalf("empty DeliveredMbps = %v, want 0", v)
	}
	if v := g.LatencyQuantiles(0.5, 0.9); v[0] != 0 || v[1] != 0 {
		t.Fatalf("empty LatencyQuantiles = %v, want zeros", v)
	}
	if v := g.FairnessIndex(); v != 1 {
		t.Fatalf("empty FairnessIndex = %v, want 1 (vacuously fair)", v)
	}

	// A connection that never moved a byte: zero windows, no samples.
	eng := sim.New()
	c, _ := newPair(eng, 0)
	c.StartWindow()
	g.Add(c)
	for _, v := range []float64{
		g.DeliveredMbps(0), g.DeliveredMbps(-sim.Second), g.DeliveredMbps(sim.Second),
		g.LatencyQuantiles(0.5)[0], g.LatencyQuantiles(0.9)[0], g.FairnessIndex(),
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("aggregate produced %v on an idle group", v)
		}
	}
	if v := g.DeliveredMbps(0); v != 0 {
		t.Fatalf("zero-duration DeliveredMbps = %v, want 0", v)
	}
	if v := g.LatencyQuantiles(0.5)[0]; v != 0 {
		t.Fatalf("sampleless LatencyQuantiles = %v, want 0", v)
	}
	if v := g.FairnessIndex(); v != 1 {
		t.Fatalf("zero-delivery FairnessIndex = %v, want 1", v)
	}
}
