package workload

import (
	"fmt"

	"cdna/internal/sim"
	"cdna/internal/stats"
)

// EndpointState is one traffic slot's checkpoint image. The armed
// think/gap/burst/arrival timer rides the engine snapshot via the timer
// registry; this is the slot's own mutable state.
type EndpointState struct {
	RNG uint64
	T0  sim.Time
	On  bool

	// Open-loop state (Poisson, Pareto, Trace). The backlog is a count:
	// a Poisson/Pareto endpoint regenerates it from the head cursor
	// (HeadRNG, HeadAt), a Trace endpoint from its trace rows. The
	// assigned trace rows are rebuilt deterministically from the spec at
	// restore; only the replay cursor and base ride the snapshot.
	InFlight  bool     `json:",omitempty"`
	Pending   int      `json:",omitempty"`
	HeadRNG   uint64   `json:",omitempty"`
	HeadAt    sim.Time `json:",omitempty"`
	Cursor    int      `json:",omitempty"`
	TraceBase sim.Time `json:",omitempty"`
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
			Pending:   e.pending,
			HeadRNG:   e.head.State(),
			HeadAt:    e.headAt,
			Cursor:    e.cursor,
			TraceBase: e.traceBase,
		}
		s.Endpoints[i] = es
	}
	return s
}

// SetState restores the generator into a freshly built machine with the
// same endpoint roster. An image whose backlog could not be replayed —
// a negative count, or a Trace backlog reaching before the first row or
// a cursor past the last — is rejected before anything is restored.
func (g *Generator) SetState(s GeneratorState) error {
	g.assignTraceOnce()
	if len(s.Endpoints) != len(g.eps) {
		return fmt.Errorf("workload: endpoint roster mismatch: snapshot has %d, machine has %d",
			len(s.Endpoints), len(g.eps))
	}
	for i, es := range s.Endpoints {
		if es.Pending < 0 {
			return fmt.Errorf("workload: endpoint %d: negative backlog %d", i, es.Pending)
		}
		if g.spec.Kind != Trace {
			continue
		}
		if es.Cursor < 0 || es.Cursor > len(g.eps[i].trace) {
			return fmt.Errorf("workload: endpoint %d: trace cursor %d outside its %d rows",
				i, es.Cursor, len(g.eps[i].trace))
		}
		if es.Pending > es.Cursor {
			return fmt.Errorf("workload: endpoint %d: backlog %d exceeds the %d replayed trace rows",
				i, es.Pending, es.Cursor)
		}
	}
	for i, es := range s.Endpoints {
		e := g.eps[i]
		e.rng.SetState(es.RNG)
		e.t0 = es.T0
		e.on = es.On
		e.inFlight = es.InFlight
		e.pending = es.Pending
		e.head.SetState(es.HeadRNG)
		e.headAt = es.HeadAt
		e.cursor = es.Cursor
		e.traceBase = es.TraceBase
	}
	g.Requests.SetState(s.Requests)
	g.Flows.SetState(s.Flows)
	g.Arrivals.SetState(s.Arrivals)
	g.Latency.SetState(s.Latency)
	return nil
}
