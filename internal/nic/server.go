// Package nic provides the shared machinery of simulated network
// interfaces: a processing server (ASIC pipeline or firmware processor),
// an interrupt coalescer, and a generic multi-queue DMA engine that
// fetches descriptors from host rings, transmits and receives frames,
// and reports completions. The conventional Intel-style NIC
// (internal/intelnic) instantiates one queue pair; the CDNA RiceNIC
// (internal/ricenic) instantiates one per hardware context and layers
// sequence checking, MAC demultiplexing and interrupt bit vectors on
// top.
package nic

import (
	"cdna/internal/sim"
	"cdna/internal/stats"
)

// Server is a FIFO processing resource with a fixed service rate — the
// NIC's ASIC pipeline or embedded firmware processor. Work items are
// serviced in order; a saturated server delays completions, bounding the
// NIC's packet rate.
type Server struct {
	eng       *sim.Engine
	busyUntil sim.Time
	Ops       stats.Counter
}

// NewServer creates a processing server.
func NewServer(eng *sim.Engine) *Server { return &Server{eng: eng} }

// Do schedules fn after cost of processing time, behind any queued work.
// Completions fire in issue order (FIFO), so callers can thread
// per-item state through a sim.FIFO paired with a callback bound once
// instead of capturing it in a fresh closure per call.
func (s *Server) Do(cost sim.Time, fn sim.Fn) {
	start := s.eng.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start + cost
	s.Ops.Inc()
	s.eng.AtFn(s.busyUntil, fn)
}

// Backlog returns the queued processing time.
func (s *Server) Backlog() sim.Time {
	if s.busyUntil <= s.eng.Now() {
		return 0
	}
	return s.busyUntil - s.eng.Now()
}

// Coalescer batches completion events into interrupts: an interrupt
// fires when `Pkts` completions accumulate or `Delay` elapses after the
// first unreported completion, whichever comes first. This is the
// mechanism behind the paper's Interrupts/s columns.
type Coalescer struct {
	eng   *sim.Engine
	Delay sim.Time
	Pkts  int
	fire  func()

	pending int
	timer   *sim.Timer // re-armed in place; no per-batch event allocation
	Fires   stats.Counter
}

// NewCoalescer creates a coalescer; fire is invoked to raise the
// interrupt (after which accumulation restarts).
func NewCoalescer(eng *sim.Engine, delay sim.Time, pkts int, fire func()) *Coalescer {
	if pkts <= 0 {
		pkts = 1
	}
	c := &Coalescer{eng: eng, Delay: delay, Pkts: pkts, fire: fire}
	c.timer = eng.NewTimer("coalesce", c.fireNow)
	return c
}

// Event records one completion.
func (c *Coalescer) Event() {
	c.pending++
	if c.pending >= c.Pkts {
		c.fireNow()
		return
	}
	if !c.timer.Armed() {
		c.timer.ArmAfter(c.Delay)
	}
}

func (c *Coalescer) fireNow() {
	c.timer.Stop()
	if c.pending == 0 {
		return
	}
	c.pending = 0
	c.Fires.Inc()
	c.fire()
}

// Pending returns completions not yet reported by an interrupt.
func (c *Coalescer) Pending() int { return c.pending }
