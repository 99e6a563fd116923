// Package topo is the multi-host topology layer: a simulated top-of-rack
// switch that connects N benchmark hosts onto one shared fabric. It is a
// store-and-forward extension of the learning bridge in internal/ether —
// the switch reuses ether.Bridge verbatim for its forwarding database and
// flood semantics — with the two things a software bridge inside a driver
// domain does not have: per-port egress serialization onto a real
// ether.Pipe link, and bounded per-port egress FIFOs that tail-drop under
// fan-in overload (the incast regime) with full drop/backpressure
// accounting.
//
// The switch is hardware: it charges no CPU to any host. Its costs are
// pure latency and queueing — a fixed store-and-forward ForwardLatency
// per frame between full-frame reception and the egress enqueue, then
// line-rate serialization (plus link propagation) out the egress pipe.
// Ingress needs no queue of its own: a frame arrives from an ingress
// pipe only once its last bit is in, so the ingress pipe *is* the
// store-and-forward receive buffer. The hot path allocates nothing in
// steady state: pending frames ride a sim.FIFO, forwarding and
// per-port transmit-done callbacks are bound once at construction, and
// the pooled event core does the rest.
package topo

import (
	"fmt"

	"cdna/internal/ether"
	"cdna/internal/sim"
	"cdna/internal/stats"
)

// Params are the fabric constants. They are properties of the simulated
// rack hardware, not of the paper's calibrated host model.
type Params struct {
	// LinkGbps is the access-link rate between each host NIC and its
	// switch port (1 Gb/s, matching the single-host evaluation links).
	LinkGbps float64
	// PropDelay is the one-way cable propagation delay per access link.
	PropDelay sim.Time
	// ForwardLatency is the switch's fixed per-frame processing delay
	// between full-frame reception on ingress and the egress enqueue —
	// the "forwarding" half of store-and-forward (the "store" half is
	// the ingress link's own last-bit serialization).
	ForwardLatency sim.Time
	// EgressCap bounds each port's egress FIFO in frames; a frame
	// arriving at a full queue is tail-dropped and counted.
	EgressCap int
}

// DefaultParams returns the standard rack fabric: GbE access links with
// the same 500 ns propagation the single-host testbed links use, a 2 us
// store-and-forward processing latency, and a 128-frame egress queue per
// port (a shallow-buffered ToR).
func DefaultParams() Params {
	return Params{
		LinkGbps:       1.0,
		PropDelay:      500 * sim.Nanosecond,
		ForwardLatency: 2 * sim.Microsecond,
		EgressCap:      128,
	}
}

// Validate rejects parameter sets that would produce silently nonsense
// schedules: a non-positive link rate serializes frames in zero or
// negative time, and negative delays schedule events into the past.
// EgressCap <= 0 stays legal — New defaults it — because "unset" is a
// meaningful request for the standard shallow-buffered queue.
func (p Params) Validate() error {
	if p.LinkGbps <= 0 {
		return fmt.Errorf("topo: LinkGbps must be positive, got %g", p.LinkGbps)
	}
	if p.PropDelay < 0 {
		return fmt.Errorf("topo: PropDelay must be non-negative, got %v", p.PropDelay)
	}
	if p.ForwardLatency < 0 {
		return fmt.Errorf("topo: ForwardLatency must be non-negative, got %v", p.ForwardLatency)
	}
	return nil
}

// pending is one fully received frame waiting out the switch's
// forwarding latency.
type pending struct {
	f  *ether.Frame
	in int32
}

// Switch is the store-and-forward top-of-rack switch. Create it with
// New, then AddPort each host link.
type Switch struct {
	eng    *sim.Engine
	p      Params
	bridge *ether.Bridge // forwarding database + unicast/flood decision
	ports  []*Port

	// Frames between full reception and the forwarding decision.
	// ForwardLatency is constant, so completion order is issue order and
	// one bound callback serves every frame.
	pendQ     sim.FIFO[pending]
	forwardFn sim.Fn

	// Multi-tier routing state (empty for a classic single-tier ToR,
	// which keeps pure learning-bridge semantics): uplinks lists the
	// up-facing trunk ports, and ecmpSeed salts the (src,dst) hash that
	// spreads remote-bound flows over them.
	uplinks  []int32
	ecmpSeed uint64

	// Inputs counts frames the switch received (post store-and-forward).
	Inputs stats.Counter
	// Drops counts egress tail drops across all ports.
	Drops stats.Counter
	// Strays counts frames that arrived on an uplink for a destination
	// also learned on an uplink: valley-free routing never re-ascends,
	// so they are released (a transient of flood-time misdelivery or a
	// station move mid-flight).
	Strays stats.Counter
}

// New creates an empty switch on the engine. Params must pass Validate
// (construction panics with the validation error otherwise — a
// misconfigured fabric is a programming error, and callers that accept
// external configuration validate before building).
func New(eng *sim.Engine, p Params) *Switch {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.EgressCap <= 0 {
		p.EgressCap = DefaultParams().EgressCap
	}
	s := &Switch{eng: eng, p: p, bridge: ether.NewBridge()}
	s.forwardFn = eng.Bind("topo.forward", s.forward)
	return s
}

// Params returns the fabric constants the switch was built with.
func (s *Switch) Params() Params { return s.p }

// Port is one switch port: the egress FIFO and the transmit pacing onto
// the port's downstream pipe.
type Port struct {
	sw   *Switch
	id   int
	out  *ether.Pipe
	q    sim.FIFO[*ether.Frame]
	busy bool
	// failed marks a dead port (fault injection): forwarding decisions
	// toward it drop, frames arriving on its ingress drop, and its
	// queued frames were discarded at failure.
	failed bool
	// up marks an up-facing trunk port of a multi-tier switch: remote
	// destinations are reached through the ECMP-balanced uplink set,
	// and frames arriving from above never go back up (valley-free).
	up bool
	// txDone fires when the egress pipe finishes serializing the current
	// frame, freeing the wire for the next queued one.
	txDone *sim.Timer

	// Enqueued counts frames accepted into the egress FIFO; Dropped
	// counts tail drops. Enqueued = delivered + still-queued, and
	// Enqueued + Dropped = forwarding decisions toward this port — the
	// conservation ledger the property tests check.
	Enqueued stats.Counter
	Dropped  stats.Counter
	maxDepth int
}

// AddPort attaches a full-duplex host link. in carries frames from the
// host toward the switch (the switch connects its ingress handler to
// it); out carries frames toward the host — the switch is its only
// sender and paces it at line rate through the bounded egress FIFO. The
// caller connects out's destination (the host NIC's Receive). in may be
// nil for a port that only ever transmits (a sink in tests).
func (s *Switch) AddPort(in, out *ether.Pipe) int {
	p := &Port{sw: s, id: len(s.ports), out: out}
	p.txDone = s.eng.NewTimer("topo.txdone", p.onWireFree)
	s.ports = append(s.ports, p)
	s.bridge.AddPort(p)
	if in != nil {
		in.Connect(ether.PortFunc(func(f *ether.Frame) { s.Input(p.id, f) }))
	}
	return p.id
}

// AddUplink attaches a full-duplex trunk toward the tier above and
// marks the port up-facing. A switch with at least one uplink routes
// valley-free with ECMP instead of flat bridge semantics (see route).
// Wiring is identical to AddPort: in carries frames from the upper
// switch down to this one, out carries frames up.
func (s *Switch) AddUplink(in, out *ether.Pipe) int {
	id := s.AddPort(in, out)
	s.ports[id].up = true
	s.uplinks = append(s.uplinks, int32(id))
	return id
}

// SetECMPSeed salts the switch's (src,dst) uplink hash. Fabric builders
// derive it from the configured fabric seed and the switch's index, so
// different switches spread the same flow pair differently while every
// rerun replays the same choice.
func (s *Switch) SetECMPSeed(seed uint64) { s.ecmpSeed = seed }

// NumUplinks returns the number of up-facing trunk ports.
func (s *Switch) NumUplinks() int { return len(s.uplinks) }

// NumPorts returns the number of attached ports.
func (s *Switch) NumPorts() int { return len(s.ports) }

// Port returns port i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// Lookup returns the port the switch has learned for a MAC, or -1.
func (s *Switch) Lookup(m ether.MAC) int { return s.bridge.Lookup(m) }

// Forwarded returns the bridge's known-unicast counter.
func (s *Switch) Forwarded() *stats.Counter { return &s.bridge.Forwarded }

// Flooded returns the bridge's unknown-unicast/broadcast counter.
func (s *Switch) Flooded() *stats.Counter { return &s.bridge.Flooded }

// Moves returns the bridge's station-move counter: source MACs
// re-learned on a different port. Port failures drive it — every
// station unlearned by FailPort re-learns on its next frame — so fault
// scenarios read it as the FDB-churn gauge.
func (s *Switch) Moves() *stats.Counter { return &s.bridge.Moves }

// Input accepts a fully received frame on ingress port `in`. The frame
// waits out the store-and-forward processing latency, then the bridge
// logic learns its source and resolves the egress port(s). Ingress
// pipes attached by AddPort call this; tests may call it directly.
//
// A failed port is dead in both directions: frames arriving on its
// ingress are dropped here — counted against the port and the switch,
// never reaching the bridge — so a host behind a dead port cannot keep
// injecting traffic or re-learning its MAC.
func (s *Switch) Input(in int, f *ether.Frame) {
	if p := s.ports[in]; p.failed {
		p.Dropped.Inc()
		s.Drops.Inc()
		f.Release()
		return
	}
	s.Inputs.Inc()
	s.pendQ.Push(pending{f: f, in: int32(in)})
	s.eng.AfterFn(s.p.ForwardLatency, s.forwardFn)
}

// forward runs after ForwardLatency: standard learning-bridge semantics
// for a single-tier switch (the bridge's output ports being the bounded
// egress queues), valley-free ECMP routing for a switch with uplinks.
func (s *Switch) forward() {
	pf := s.pendQ.Pop()
	if len(s.uplinks) == 0 {
		s.bridge.Input(int(pf.in), pf.f)
		return
	}
	s.route(int(pf.in), pf.f)
}

// route is the forwarding decision of a multi-tier switch. It keeps the
// learning bridge's forwarding database and counters but adds the two
// rules that make a Clos fabric loop-free and balanced:
//
//   - valley-free: a frame that arrived on an up-facing port is only
//     ever forwarded down; if its destination is (still) learned on an
//     uplink, the frame is a stray and is released, never re-ascended.
//   - ECMP: a destination learned on any uplink is remote; the egress
//     uplink is hash(seed, src, dst) over the live uplink set — a pure
//     function of the flow pair, so each pair keeps one path (FIFO, no
//     reordering).
//
// Source learning stays unconditional, but a MAC flapping between two
// up-facing ports is not a station move — remote MACs legitimately
// appear on whichever uplink the sender's ECMP chose — so Moves counts
// only changes that involve a down-facing port.
func (s *Switch) route(in int, f *ether.Frame) {
	ip := s.ports[in]
	if !f.Src.IsBroadcast() {
		old := s.bridge.Learn(f.Src, in)
		if old >= 0 && old != in && !(ip.up && s.ports[old].up) {
			s.bridge.Moves.Inc()
		}
	}
	if !f.Dst.IsBroadcast() {
		if out := s.bridge.Lookup(f.Dst); out >= 0 {
			op := s.ports[out]
			switch {
			case !op.up && out != in:
				s.bridge.Forwarded.Inc()
				op.Receive(f)
			case !op.up:
				f.Release() // hairpin suppressed
			case !ip.up:
				s.bridge.Forwarded.Inc()
				s.ports[s.ecmpUplink(f)].Receive(f)
			default:
				s.Strays.Inc()
				f.Release()
			}
			return
		}
	}
	s.flood(in, f)
}

// flood delivers an unknown-unicast or broadcast frame to every
// down-facing port except ingress, plus — when the frame came from
// below — exactly one ECMP-chosen uplink. One copy per tier-crossing
// keeps a multi-rooted Clos flood loop-free and duplicate-free: the
// stripe wiring gives each lower switch a single port per upper
// subtree, and descending frames never re-ascend.
func (s *Switch) flood(in int, f *ether.Frame) {
	s.bridge.Flooded.Inc()
	up := -1
	if !s.ports[in].up {
		up = s.ecmpUplink(f)
	}
	n := 0
	for i, p := range s.ports {
		if i != in && (!p.up || i == up) {
			n++
		}
	}
	s.bridge.FloodCopies.Add(uint64(n))
	if n == 0 {
		f.Release()
		return
	}
	for i := 1; i < n; i++ {
		f.Retain()
	}
	for i, p := range s.ports {
		if i != in && (!p.up || i == up) {
			p.Receive(f)
		}
	}
}

// ecmpUplink picks the egress uplink for a flow pair: a deterministic
// hash of (seed, src, dst) over the non-failed uplinks, falling back to
// the full set (where the egress drop is then counted) when every
// uplink is down.
func (s *Switch) ecmpUplink(f *ether.Frame) int {
	live := 0
	for _, u := range s.uplinks {
		if !s.ports[u].failed {
			live++
		}
	}
	h := ecmpHash(s.ecmpSeed, f.Src, f.Dst)
	if live == 0 {
		return int(s.uplinks[h%uint64(len(s.uplinks))])
	}
	k := int(h % uint64(live))
	for _, u := range s.uplinks {
		if s.ports[u].failed {
			continue
		}
		if k == 0 {
			return int(u)
		}
		k--
	}
	return int(s.uplinks[0]) // unreachable
}

// ecmpHash mixes the flow pair with the switch's seed (splitmix64
// finalizer — the same stream sim.RNG uses, so quality is known and the
// value is a pure function of its inputs: byte-identical on every
// rerun).
func ecmpHash(seed uint64, src, dst ether.MAC) uint64 {
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	h := mix(seed + 0x9e3779b97f4a7c15)
	h = mix(h ^ macBits(src))
	h = mix(h ^ macBits(dst))
	return h
}

// macBits packs a MAC into the low 48 bits of a uint64.
func macBits(m ether.MAC) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// Receive implements ether.Port for the embedded bridge's output side:
// a forwarding decision toward this port. Full queue = tail drop.
func (p *Port) Receive(f *ether.Frame) {
	if p.failed {
		p.Dropped.Inc()
		p.sw.Drops.Inc()
		f.Release()
		return
	}
	if p.q.Len() >= p.sw.p.EgressCap {
		p.Dropped.Inc()
		p.sw.Drops.Inc()
		f.Release()
		return
	}
	p.q.Push(f)
	p.Enqueued.Inc()
	if d := p.q.Len(); d > p.maxDepth {
		p.maxDepth = d
	}
	if !p.busy {
		p.startTx()
	}
}

// startTx puts the head-of-line frame on the wire and arms the
// wire-free timer for when its last bit leaves the switch.
func (p *Port) startTx() {
	f := p.q.Pop()
	p.busy = true
	p.out.Send(f)
	p.txDone.Arm(p.out.NextFree())
}

func (p *Port) onWireFree() {
	p.busy = false
	if p.q.Len() > 0 {
		p.startTx()
	}
}

// FailPort kills port i in both directions: its queued egress frames
// are discarded (and counted as drops), every station learned behind it
// is unlearned from the forwarding database — traffic toward those MACs
// floods until they are re-learned — and future forwarding decisions
// toward the port drop, as do frames arriving on its ingress. The frame
// currently serializing, if any, still delivers.
func (s *Switch) FailPort(i int) {
	p := s.ports[i]
	p.failed = true
	for p.q.Len() > 0 {
		p.q.Pop().Release()
		p.Dropped.Inc()
		s.Drops.Inc()
	}
	s.bridge.Unlearn(i)
}

// RestorePort brings a failed port back. Stations behind it are
// re-learned from their next frames.
func (s *Switch) RestorePort(i int) { s.ports[i].failed = false }

// Failed reports whether the port is failed.
func (p *Port) Failed() bool { return p.failed }

// Depth returns the current egress queue depth (excluding the frame on
// the wire).
func (p *Port) Depth() int { return p.q.Len() }

// MaxDepth returns the high-water mark of the egress queue since the
// last StartWindow (or since creation).
func (p *Port) MaxDepth() int { return p.maxDepth }

// StartWindow resets the switch's windowed counters (total and
// per-port, including the egress-depth high-water marks), so warmup
// traffic is excluded from reported drop rates and queue depths.
func (s *Switch) StartWindow() {
	s.Inputs.StartWindow()
	s.Drops.StartWindow()
	s.Strays.StartWindow()
	s.bridge.Forwarded.StartWindow()
	s.bridge.Flooded.StartWindow()
	s.bridge.FloodCopies.StartWindow()
	s.bridge.Moves.StartWindow()
	for _, p := range s.ports {
		p.Enqueued.StartWindow()
		p.Dropped.StartWindow()
		p.maxDepth = p.q.Len()
	}
}
