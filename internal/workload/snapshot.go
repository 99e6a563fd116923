package workload

import (
	"fmt"

	"cdna/internal/sim"
	"cdna/internal/stats"
)

// FlowArrivalState is one queued open-loop arrival in a checkpoint.
type FlowArrivalState struct {
	At   sim.Time
	Segs int32
}

// EndpointState is one traffic slot's checkpoint image. The armed
// think/gap/burst/arrival timer rides the engine snapshot via the timer
// registry; this is the slot's own mutable state.
type EndpointState struct {
	RNG uint64
	T0  sim.Time
	On  bool

	// Open-loop state (Poisson, Pareto, Trace). The assigned trace rows
	// are rebuilt deterministically from the spec at restore; only the
	// replay cursor and base rides the snapshot.
	InFlight  bool               `json:",omitempty"`
	Backlog   []FlowArrivalState `json:",omitempty"`
	Cursor    int                `json:",omitempty"`
	TraceBase sim.Time           `json:",omitempty"`
}

// GeneratorState is the generator's checkpoint image.
type GeneratorState struct {
	Endpoints []EndpointState
	Requests  stats.CounterState
	Flows     stats.CounterState
	Arrivals  stats.CounterState
	Latency   stats.DistributionState
}

// State captures the generator and every endpoint in registration order.
func (g *Generator) State() GeneratorState {
	s := GeneratorState{
		Endpoints: make([]EndpointState, len(g.eps)),
		Requests:  g.Requests.State(),
		Flows:     g.Flows.State(),
		Arrivals:  g.Arrivals.State(),
		Latency:   g.Latency.State(),
	}
	for i, e := range g.eps {
		es := EndpointState{
			RNG:       e.rng.State(),
			T0:        e.t0,
			On:        e.on,
			InFlight:  e.inFlight,
			Cursor:    e.cursor,
			TraceBase: e.traceBase,
		}
		if n := e.backlog.Len(); n > 0 {
			es.Backlog = make([]FlowArrivalState, n)
			for j := 0; j < n; j++ {
				fa := e.backlog.At(j)
				es.Backlog[j] = FlowArrivalState{At: fa.at, Segs: fa.segs}
			}
		}
		s.Endpoints[i] = es
	}
	return s
}

// SetState restores the generator into a freshly built machine with the
// same endpoint roster.
func (g *Generator) SetState(s GeneratorState) error {
	g.assignTraceOnce()
	if len(s.Endpoints) != len(g.eps) {
		return fmt.Errorf("workload: endpoint roster mismatch: snapshot has %d, machine has %d",
			len(s.Endpoints), len(g.eps))
	}
	for i, es := range s.Endpoints {
		e := g.eps[i]
		e.rng.SetState(es.RNG)
		e.t0 = es.T0
		e.on = es.On
		e.inFlight = es.InFlight
		e.cursor = es.Cursor
		e.traceBase = es.TraceBase
		e.backlog.Clear()
		for _, fa := range es.Backlog {
			e.backlog.Push(flowArrival{at: fa.At, segs: fa.Segs})
		}
	}
	g.Requests.SetState(s.Requests)
	g.Flows.SetState(s.Flows)
	g.Arrivals.SetState(s.Arrivals)
	g.Latency.SetState(s.Latency)
	return nil
}
