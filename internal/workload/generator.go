package workload

import (
	"fmt"

	"cdna/internal/sim"
	"cdna/internal/stats"
	"cdna/internal/transport"
)

// jitterFrac is the relative jitter applied to workload timers (think
// time, burst phases, flow gaps) so endpoints desynchronize instead of
// beating in lockstep.
const jitterFrac = 0.2

// Endpoint is one traffic-generation attachment point, produced by the
// machine builder: the forward connection the workload drives, an
// optional reverse connection (request/response needs a return
// channel), and the CPU-charge hooks for per-flow setup/teardown in the
// guest that owns the slot. Hooks may be nil (the CPU-less peer).
type Endpoint struct {
	Fwd *transport.Conn
	Rev *transport.Conn

	// Local and Remote identify the endpoint's guest and the remote
	// guest it targets on the fabric (transport.PeerHost for the
	// classic off-fabric peer). The machine builder threads them
	// through so a generator's slots are addressable: cross-host
	// patterns (incast, all-to-all, pairwise) differ only in how these
	// are chosen.
	Local, Remote transport.Addr

	// OnFlowSetup/OnFlowTeardown charge the owning guest's stack for
	// opening and closing a short-lived flow, so churn is not free.
	OnFlowSetup    func()
	OnFlowTeardown func()
}

// Generator drives every endpoint of one machine according to a Spec.
// It lives entirely inside the machine's single-threaded sim.Engine, so
// its behaviour is deterministic for a given spec and endpoint order.
type Generator struct {
	eng  *sim.Engine
	spec Spec // resolved: all defaults filled in
	eps  []*endpoint

	// trace is the parsed flow trace (Trace kind), loaded at
	// construction; events are assigned to endpoints at Launch.
	trace *FlowTrace
	// traceSkipped counts trace events with no matching endpoint.
	traceSkipped int

	// Requests counts completed RPC exchanges (RequestResponse).
	Requests stats.Counter
	// Flows counts completed short-lived flows (Churn and the
	// open-loop kinds).
	Flows stats.Counter
	// Arrivals counts open-loop flow arrivals (offered load); compared
	// with Flows it exposes the backlog an overloaded fabric accrues.
	Arrivals stats.Counter
	// Latency samples message-completion latency:
	// request-issue to response-delivered for RequestResponse, flow
	// open to final ack for Churn. Empty for Bulk and Burst.
	Latency stats.Durations
}

// endpoint is the per-attachment runtime state.
type endpoint struct {
	g *Generator
	Endpoint
	rng     *sim.RNG
	timer   *sim.Timer // think / gap / burst-phase / arrival timer
	t0      sim.Time   // outstanding message's issue (or arrival) time
	on      bool       // burst: currently in an on-period
	startFn sim.Fn     // kind-appropriate Launch callback, bound at Add

	// Open-loop state (Poisson, Pareto, Trace). The backlog is replayed
	// from the arrival stream, not stored (see openloop.go).
	pending   int          // arrivals waiting for the connection
	inFlight  bool         // a flow occupies the connection
	head      sim.RNG      // Poisson/Pareto: the arrival stream at the backlog's head
	headAt    sim.Time     // arrival time of the last flow taken off the backlog
	trace     []TraceEvent // this endpoint's assigned trace rows
	cursor    int          // next trace row to replay
	traceBase sim.Time     // engine time of trace t=0
}

// NewGenerator creates a generator for a resolved spec. Call
// Spec.Resolved before constructing; Add endpoints as the machine is
// wired, then Launch once to start traffic.
func NewGenerator(eng *sim.Engine, spec Spec) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{eng: eng, spec: spec}
	if spec.Kind == Trace {
		tr, err := LoadTrace(spec.TracePath)
		if err != nil {
			return nil, err
		}
		g.trace = tr
	}
	return g, nil
}

// Spec returns the generator's resolved spec.
func (g *Generator) Spec() Spec { return g.spec }

// Endpoints returns the registered endpoint descriptors in registration
// order — the wiring roster tests and diagnostics read to see which
// remote guest each traffic slot targets.
func (g *Generator) Endpoints() []Endpoint {
	eps := make([]Endpoint, len(g.eps))
	for i, e := range g.eps {
		eps[i] = e.Endpoint
	}
	return eps
}

// NeedsReverse reports whether the workload requires a reverse
// connection per endpoint (the machine builder wires one only then).
func (g *Generator) NeedsReverse() bool { return g.spec.Kind == RequestResponse }

// Add registers an endpoint. Endpoints must be added in a deterministic
// order (the machine builder's wiring order); each gets its own jitter
// RNG stream derived from the spec seed and its index, so traffic is
// identical run-to-run and independent of campaign parallelism.
func (g *Generator) Add(ep Endpoint) error {
	if ep.Fwd == nil {
		return fmt.Errorf("workload: endpoint needs a forward connection")
	}
	if g.NeedsReverse() && ep.Rev == nil {
		return fmt.Errorf("workload: %v workload needs a reverse connection", g.spec.Kind)
	}
	e := &endpoint{g: g, Endpoint: ep}
	e.rng = sim.NewRNG(g.spec.Seed + uint64(len(g.eps))*0x9e3779b97f4a7c15)
	e.head = *e.rng
	switch g.spec.Kind {
	case Bulk:
		e.startFn = g.eng.Bind("conn.start", ep.Fwd.Start)
	case RequestResponse:
		e.timer = g.eng.NewTimer("workload.think", e.issue)
		e.startFn = g.eng.Bind("workload.issue", e.issue)
		ep.Fwd.OnMark = e.serve
		ep.Rev.OnMark = e.onResponse
	case Churn:
		e.timer = g.eng.NewTimer("workload.gap", e.openFlow)
		e.startFn = g.eng.Bind("workload.flow", e.openFlow)
		ep.Fwd.OnSendComplete = e.onFlowDone
	case Burst:
		e.timer = g.eng.NewTimer("workload.burst", e.togglePhase)
		e.startFn = g.eng.Bind("conn.start", e.startBurst)
	case Poisson, Pareto:
		e.timer = g.eng.NewTimer("workload.arrival", e.onArrival)
		e.startFn = g.eng.Bind("workload.launch", e.startOpenLoop)
		ep.Fwd.OnSendComplete = e.onOpenFlowDone
	case Trace:
		e.timer = g.eng.NewTimer("workload.arrival", e.onTraceArrival)
		e.startFn = g.eng.Bind("workload.launch", e.startTrace)
		ep.Fwd.OnSendComplete = e.onOpenFlowDone
	}
	g.eps = append(g.eps, e)
	return nil
}

// Launch schedules the workload's start for every endpoint, staggered
// over the first part of warmup so initial windows do not arrive as one
// synchronized burst. For Bulk this reproduces the historical schedule
// exactly: the same "conn.start" events at the same times in the same
// order.
func (g *Generator) Launch(warmup sim.Time) {
	if g.spec.Kind == Trace {
		g.traceSkipped = assignTrace(g.trace, g.eps)
	}
	n := len(g.eps)
	for i, e := range g.eps {
		g.eng.AtFn(launchAt(warmup, i, n), e.startFn)
	}
}

// Trace returns the flow trace the generator loaded at construction,
// or nil for a workload that replays none.
func (g *Generator) Trace() *FlowTrace { return g.trace }

// TraceSkipped returns how many trace events had no matching endpoint
// (valid after Launch for the Trace kind).
func (g *Generator) TraceSkipped() int { return g.traceSkipped }

// launchAt returns the staggered start time of endpoint i of n:
// offset past driver initialization (initial receive-buffer posting),
// then spread over the first part of warmup.
func launchAt(warmup sim.Time, i, n int) sim.Time {
	stagger := warmup / 3
	if stagger > 50*sim.Millisecond {
		stagger = 50 * sim.Millisecond
	}
	return 2*sim.Millisecond + sim.Time(i)*stagger/sim.Time(n)
}

// StartWindow resets the generator's windowed metrics, discarding
// warmup samples.
func (g *Generator) StartWindow() {
	g.Requests.StartWindow()
	g.Flows.StartWindow()
	g.Arrivals.StartWindow()
	g.Latency.Reset()
}

// --- RequestResponse: closed-loop RPC client ---

// issue sends one request and arms the completion marks on both sides:
// the server responds when the full request has been delivered, the
// client completes when the full response has.
func (e *endpoint) issue() {
	e.t0 = e.g.eng.Now()
	e.Fwd.ExpectDelivery(e.g.spec.RequestSegs)
	e.Rev.ExpectDelivery(e.g.spec.ResponseSegs)
	e.Fwd.Send(e.g.spec.RequestSegs)
}

// serve runs at the server when the request is fully delivered.
func (e *endpoint) serve() {
	e.Rev.Send(e.g.spec.ResponseSegs)
}

// onResponse runs at the client when the response is fully delivered:
// record the RPC's end-to-end latency, think, go again.
func (e *endpoint) onResponse() {
	e.g.Latency.Observe(e.g.eng.Now() - e.t0)
	e.g.Requests.Inc()
	e.timer.ArmAfter(e.rng.Jitter(e.g.spec.Think, jitterFrac))
}

// --- Churn: short-lived flows ---

// openFlow charges connection setup to the owning guest, restarts slow
// start (a fresh flow does not inherit the previous flow's window), and
// pushes the flow's segments. The delivery mark flushes the final
// delayed ack so the close is not RTO-bound.
func (e *endpoint) openFlow() {
	if e.OnFlowSetup != nil {
		e.OnFlowSetup()
	}
	e.t0 = e.g.eng.Now()
	e.Fwd.ResetSlowStart()
	e.Fwd.ExpectDelivery(e.g.spec.FlowSegs)
	e.Fwd.Send(e.g.spec.FlowSegs)
}

// onFlowDone runs at the sender when the flow is fully acknowledged:
// charge teardown, record the flow's lifetime, open the next flow
// (after the configured gap, if any).
func (e *endpoint) onFlowDone() {
	if e.OnFlowTeardown != nil {
		e.OnFlowTeardown()
	}
	e.g.Flows.Inc()
	e.g.Latency.Observe(e.g.eng.Now() - e.t0)
	if gap := e.g.spec.FlowGap; gap > 0 {
		e.timer.ArmAfter(e.rng.Jitter(gap, jitterFrac))
		return
	}
	e.openFlow()
}

// --- Burst: on/off saturation ---

// startBurst begins the first on-period.
func (e *endpoint) startBurst() {
	e.on = true
	e.Fwd.Start()
	e.timer.ArmAfter(e.rng.Jitter(e.g.spec.BurstOn, jitterFrac))
}

// togglePhase flips between on and off, re-arming its own timer — the
// persistent-timer self-re-arm pattern.
func (e *endpoint) togglePhase() {
	if e.on {
		e.on = false
		e.Fwd.Pause()
		e.timer.ArmAfter(e.rng.Jitter(e.g.spec.BurstOff, jitterFrac))
		return
	}
	e.on = true
	e.Fwd.Resume()
	e.timer.ArmAfter(e.rng.Jitter(e.g.spec.BurstOn, jitterFrac))
}
