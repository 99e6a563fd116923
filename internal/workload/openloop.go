package workload

import (
	"math"

	"cdna/internal/sim"
)

// Open-loop flow generation (Poisson, Pareto, Trace): arrivals are
// driven by a modeled client population (or a recorded trace), not by
// completions. Each endpoint keeps an arrival backlog; one flow is in
// flight on the connection at a time, and latency is measured from
// *arrival* to completion — queueing delay included — so overload shows
// up as response-time collapse, exactly what a closed-loop generator
// structurally cannot exhibit.
//
// The backlog is a count, not a queue. A Poisson or Pareto endpoint's
// arrivals are a pure function of its RNG stream, drawn in the order
// gap₁, then segs₁ and gap₂ at arrival 1, then segs₂ and gap₃, and so
// on. The backlog is the stretch of that stream between the flows
// already started and the arrivals already fired, so the endpoint keeps
// a second copy of the stream (the head cursor) that lags behind the
// arrival process and regenerates each flow as it leaves the backlog.
// A Trace endpoint's backlog is the rows [cursor-pending, cursor) of
// its trace. Either way an endpoint holds O(1) state however far
// arrivals outrun completions.

// sizeBin is one step of a discrete flow-size CDF: cumulative
// probability up to and including this size.
type sizeBin struct {
	q    float64
	segs int32
}

// maxFlowSegs caps sampled flow sizes (~6 MB at the default MSS) so a
// single heavy-tail draw cannot occupy a link for a whole measurement
// window.
const maxFlowSegs = 4096

// websearchBins approximates the web-search flow-size CDF of the DCTCP
// lineage (shape-preserving, in segments at the default MSS): mostly
// small-to-mid flows with a modest heavy tail.
var websearchBins = []sizeBin{
	{0.15, 2}, {0.40, 7}, {0.60, 20}, {0.80, 70}, {0.92, 230}, {0.98, 700}, {1.00, 1400},
}

// dataminingBins approximates the data-mining CDF: overwhelmingly tiny
// flows and a thin tail of very large ones.
var dataminingBins = []sizeBin{
	{0.50, 1}, {0.78, 2}, {0.90, 7}, {0.96, 50}, {0.99, 350}, {1.00, 2800},
}

// pickBin returns the size whose CDF step covers u.
func pickBin(bins []sizeBin, u float64) int32 {
	for _, b := range bins {
		if u <= b.q {
			return b.segs
		}
	}
	return bins[len(bins)-1].segs
}

// sampleSegs draws one flow size from the spec's distribution off r.
func (e *endpoint) sampleSegs(r *sim.RNG) int32 {
	s := &e.g.spec
	switch s.SizeDist {
	case SizePareto:
		v := r.Pareto(s.ParetoAlpha, float64(s.FlowSegs))
		if v > maxFlowSegs {
			v = maxFlowSegs
		}
		return int32(math.Ceil(v))
	case SizeWebSearch:
		return pickBin(websearchBins, r.Float64())
	case SizeDataMining:
		return pickBin(dataminingBins, r.Float64())
	default:
		return int32(s.FlowSegs)
	}
}

// interArrival draws the gap to the endpoint's next flow arrival off r.
// The mean is 1/(FlowRate*Clients); Poisson draws exponential gaps,
// Pareto heavy-tailed ones with the same mean (bursts and long
// silences).
func (e *endpoint) interArrival(r *sim.RNG) sim.Time {
	s := &e.g.spec
	mean := float64(sim.Second) / (s.FlowRate * float64(s.Clients))
	var v float64
	if s.Kind == Pareto {
		xm := mean * (s.ParetoAlpha - 1) / s.ParetoAlpha
		v = r.Pareto(s.ParetoAlpha, xm)
	} else {
		v = r.Exp(mean)
	}
	if v < 1 {
		v = 1
	}
	return sim.Time(v)
}

// startOpenLoop is the Poisson/Pareto launch event: anchor the head
// cursor at the launch instant and arm the first arrival one draw away.
func (e *endpoint) startOpenLoop() {
	e.headAt = e.g.eng.Now()
	e.timer.ArmAfter(e.interArrival(e.rng))
}

// onArrival is the Poisson/Pareto arrival event: count the flow into the
// backlog, draw its size (only to keep the stream in step; the head
// cursor redraws it when the flow starts), re-arm the arrival process,
// and start the flow immediately if the connection is idle.
func (e *endpoint) onArrival() {
	e.g.Arrivals.Inc()
	e.pending++
	e.sampleSegs(e.rng)
	e.timer.ArmAfter(e.interArrival(e.rng))
	if !e.inFlight {
		e.startNextFlow()
	}
}

// startTrace is the Trace launch event: position the cursor and arm
// the first recorded arrival (trace times are relative to launch).
func (e *endpoint) startTrace() {
	if e.cursor >= len(e.trace) {
		return
	}
	e.traceBase = e.g.eng.Now()
	e.timer.Arm(e.traceBase + e.trace[e.cursor].At)
}

// onTraceArrival counts the cursor's row into the backlog and arms the
// next one.
func (e *endpoint) onTraceArrival() {
	e.cursor++
	e.pending++
	e.g.Arrivals.Inc()
	if e.cursor < len(e.trace) {
		e.timer.Arm(e.traceBase + e.trace[e.cursor].At)
	}
	if !e.inFlight {
		e.startNextFlow()
	}
}

// popBacklog regenerates the backlog's head flow — its arrival time and
// size — and takes it off the backlog.
func (e *endpoint) popBacklog() (at sim.Time, segs int32) {
	if e.g.spec.Kind == Trace {
		ev := &e.trace[e.cursor-e.pending]
		e.pending--
		return e.traceBase + ev.At, int32(min(ev.Segs, maxFlowSegs))
	}
	e.pending--
	e.headAt += e.interArrival(&e.head)
	return e.headAt, e.sampleSegs(&e.head)
}

// startNextFlow opens the backlog's head flow on the connection:
// per-flow setup cost, fresh slow start, one delivery mark at the end.
func (e *endpoint) startNextFlow() {
	at, segs := e.popBacklog()
	e.inFlight = true
	e.t0 = at // arrival time: latency includes backlog queueing
	if e.OnFlowSetup != nil {
		e.OnFlowSetup()
	}
	e.Fwd.ResetSlowStart()
	e.Fwd.ExpectDelivery(int(segs))
	e.Fwd.Send(int(segs))
}

// onOpenFlowDone runs at the sender when the in-flight flow is fully
// acknowledged: charge teardown, record the open-loop response time,
// and drain the backlog.
func (e *endpoint) onOpenFlowDone() {
	if e.OnFlowTeardown != nil {
		e.OnFlowTeardown()
	}
	e.g.Flows.Inc()
	e.g.Latency.Observe(e.g.eng.Now() - e.t0)
	e.inFlight = false
	if e.pending > 0 {
		e.startNextFlow()
	}
}
