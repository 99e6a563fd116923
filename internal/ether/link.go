package ether

import (
	"cdna/internal/sim"
	"cdna/internal/stats"
)

// Port consumes frames delivered by a Pipe.
type Port interface {
	Receive(f *Frame)
}

// PortFunc adapts a function to the Port interface.
type PortFunc func(f *Frame)

// Receive implements Port.
func (fn PortFunc) Receive(f *Frame) { fn(f) }

// Pipe is one direction of a link: it serializes frames at the line rate
// and delivers them to the destination port after a propagation delay.
// Senders should pace themselves with Backlog/NextFree; the pipe itself
// never drops.
type Pipe struct {
	eng        *sim.Engine
	bytesPerNs float64
	propDelay  sim.Time
	dst        Port
	busyUntil  sim.Time

	// Frames in flight, delivered FIFO by deliverFn: serialization times
	// are nondecreasing and propagation is constant, so wire order is
	// issue order and the per-frame delivery closure reduces to one
	// bound callback plus a queue.
	inflight  sim.FIFO[*Frame]
	deliverFn sim.Fn

	// down models a failed link (fault injection): while set, Send
	// discards the frame at the transmitter. Frames already serialized
	// onto the wire still deliver — their bits left the NIC before the
	// failure.
	down bool

	// Keyed delivery sequencing (EnableKeyed): fabric pipes of
	// multi-host machines order same-instant deliveries by an explicit
	// key instead of the engine's scheduling counter.
	keyed   bool
	keyBase uint64
	sendSeq uint64

	Frames stats.Counter
	Bytes  stats.Counter
	// Dropped counts frames discarded because the link was down.
	Dropped stats.Counter
}

// NewPipe creates a unidirectional pipe at rate gbps.
func NewPipe(eng *sim.Engine, gbps float64, propDelay sim.Time) *Pipe {
	p := &Pipe{eng: eng, bytesPerNs: GbpsToBytesPerNs(gbps), propDelay: propDelay}
	p.deliverFn = eng.Bind("ether.deliver", p.deliver)
	return p
}

// keyIDShift positions the pipe identity above the per-pipe send
// counter in a delivery key: 2^40 sends per pipe and 2^21 pipes fit
// under sim.SeqBand with room to spare.
const keyIDShift = 40

// EnableKeyed switches the pipe to keyed delivery sequencing under the
// given machine-unique pipe identity: every delivery carries the event
// key SeqBand | id<<40 | n instead of a scheduling-order sequence, so
// same-instant deliveries order by (pipe identity, send order) — a
// pure function of simulated traffic. Must be called before any Send;
// ids must be assigned in deterministic construction order so keys are
// reproducible.
func (p *Pipe) EnableKeyed(id int) {
	p.keyed = true
	p.keyBase = sim.SeqBand | uint64(id)<<keyIDShift
}

// Connect attaches the receiving port.
func (p *Pipe) Connect(dst Port) { p.dst = dst }

// Send serializes the frame onto the wire. Delivery happens when the
// last bit (plus propagation) arrives.
func (p *Pipe) Send(f *Frame) {
	if p.down {
		p.Dropped.Inc()
		f.Release()
		return
	}
	start := p.eng.Now()
	if p.busyUntil > start {
		start = p.busyUntil
	}
	txTime := sim.Time(float64(f.WireBytes()) / p.bytesPerNs)
	p.busyUntil = start + txTime
	p.Frames.Inc()
	p.Bytes.Add(uint64(f.WireBytes()))
	deliverAt := p.busyUntil + p.propDelay
	p.inflight.Push(f)
	if p.keyed {
		p.eng.AtFnKeyed(deliverAt, p.deliverFn, p.keyBase|p.sendSeq)
		p.sendSeq++
		return
	}
	p.eng.AtFn(deliverAt, p.deliverFn)
}

func (p *Pipe) deliver() {
	f := p.inflight.Pop()
	if p.dst != nil {
		p.dst.Receive(f)
	} else {
		f.Release()
	}
}

// Backlog returns how long until the wire is free.
func (p *Pipe) Backlog() sim.Time {
	if p.busyUntil <= p.eng.Now() {
		return 0
	}
	return p.busyUntil - p.eng.Now()
}

// NextFree returns the absolute time the wire frees up (never in the
// past).
func (p *Pipe) NextFree() sim.Time {
	if p.busyUntil < p.eng.Now() {
		return p.eng.Now()
	}
	return p.busyUntil
}

// SetDown fails or restores the link direction. A down pipe silently
// discards everything Send hands it, like a cable with its far end
// unplugged.
func (p *Pipe) SetDown(down bool) { p.down = down }

// Down reports whether the pipe is failed.
func (p *Pipe) Down() bool { return p.down }

// StartWindow resets windowed counters.
func (p *Pipe) StartWindow() {
	p.Frames.StartWindow()
	p.Bytes.StartWindow()
	p.Dropped.StartWindow()
}

// Duplex is a full-duplex link: A→B and B→A pipes.
type Duplex struct {
	AtoB, BtoA *Pipe
}

// NewDuplex builds a full-duplex link at rate gbps.
func NewDuplex(eng *sim.Engine, gbps float64, propDelay sim.Time) *Duplex {
	return &Duplex{
		AtoB: NewPipe(eng, gbps, propDelay),
		BtoA: NewPipe(eng, gbps, propDelay),
	}
}
