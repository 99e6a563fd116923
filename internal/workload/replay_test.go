package workload

import (
	"fmt"
	"sort"
	"testing"

	"cdna/internal/sim"
	"cdna/internal/transport"
)

// refArrival is one queued arrival of the reference backlog.
type refArrival struct {
	at   sim.Time
	segs int32
}

// refBacklog is the stored-queue open loop that the replayed backlog
// replaced, kept as the reference it must match. Every arrival is pushed
// onto a FIFO with its size drawn at arrival time, in the arrival
// process's draw order (gap₁, then segs₁ and gap₂ at arrival 1, ...),
// and each started flow pops the head. It runs lazily beside the real
// endpoint: catchUp fires every reference arrival before a given time.
type refBacklog struct {
	e    *endpoint // the real endpoint, for its spec-driven samplers
	rng  sim.RNG   // the arrival stream, from the endpoint's seed
	next sim.Time  // next Poisson/Pareto arrival
	q    sim.FIFO[refArrival]

	// Trace kind: the endpoint's rows, replayed from launch.
	trace  []TraceEvent
	cursor int
	base   sim.Time

	pushed int
}

// newRefBacklog builds the reference for endpoint i of n, launched with
// the given warmup. Its stream comes from the seed, not from the
// endpoint's state, so it shares nothing mutable with the replay.
func newRefBacklog(g *Generator, i, n int, warmup sim.Time) *refBacklog {
	e := g.eps[i]
	r := &refBacklog{e: e, rng: *sim.NewRNG(g.spec.Seed + uint64(i)*0x9e3779b97f4a7c15)}
	launch := launchAt(warmup, i, n)
	if g.spec.Kind == Trace {
		r.trace, r.base = e.trace, launch
		return r
	}
	r.next = launch + e.interArrival(&r.rng)
	return r
}

// catchUp pushes every reference arrival earlier than until.
func (r *refBacklog) catchUp(until sim.Time) {
	if r.trace != nil {
		for ; r.cursor < len(r.trace) && r.base+r.trace[r.cursor].At < until; r.cursor++ {
			ev := r.trace[r.cursor]
			segs := int32(ev.Segs)
			if segs > maxFlowSegs {
				segs = maxFlowSegs
			}
			r.q.Push(refArrival{at: r.base + ev.At, segs: segs})
			r.pushed++
		}
		return
	}
	for r.next < until {
		r.q.Push(refArrival{at: r.next, segs: r.e.sampleSegs(&r.rng)})
		r.pushed++
		r.next += r.e.interArrival(&r.rng)
	}
}

// startedFlow is one flow a real endpoint opened, with the reference
// backlog's head at that moment.
type startedFlow struct {
	t0    sim.Time
	limit uint32 // the connection's send budget just before the flow's Send
	want  refArrival
}

// replayTrace is a random trace over the directed pairs of three hosts:
// same-instant rows, sizes past maxFlowSegs, and rows for a pair no
// endpoint serves.
func replayTrace(seed uint64) *FlowTrace {
	rng := sim.NewRNG(seed)
	tr := &FlowTrace{}
	for i := 0; i < 600; i++ {
		at := sim.Time(rng.Intn(150)) * sim.Millisecond / 2
		src, dst := rng.Intn(3), rng.Intn(3)
		segs := 1 + rng.Intn(60)
		if rng.Intn(50) == 0 {
			segs = maxFlowSegs + 1 + rng.Intn(100)
		}
		tr.Events = append(tr.Events, TraceEvent{At: at, Src: src, Dst: dst, Segs: segs})
	}
	tr.Events = append(tr.Events, TraceEvent{At: sim.Millisecond, Src: 7, Dst: 8, Segs: 3})
	sort.SliceStable(tr.Events, func(i, j int) bool { return tr.Events[i].At < tr.Events[j].At })
	return tr
}

// runReplayDiff drives three real endpoints of spec, each completion
// delayed by a random extra time so the backlog both grows and drains,
// and checks every started flow against the reference backlog's head.
func runReplayDiff(t *testing.T, spec Spec, seed uint64) {
	t.Helper()
	const n = 3
	const warmup = 30 * sim.Millisecond
	const until = 200 * sim.Millisecond
	eng := sim.New()
	g, err := NewGenerator(eng, spec.Resolved(true, false))
	if err != nil {
		t.Fatal(err)
	}
	delays := sim.NewRNG(seed ^ 0xde1a7)
	started := make([][]startedFlow, n)
	refs := make([]*refBacklog, n)
	deepest := 0
	for i := 0; i < n; i++ {
		i := i
		c := loop(eng, 32)
		ep := Endpoint{
			Fwd:    c,
			Local:  transport.Addr{Host: i},
			Remote: transport.Addr{Host: (i + 1) % n},
			OnFlowSetup: func() {
				ref := refs[i]
				ref.catchUp(eng.Now() + 1)
				if ref.q.Len() == 0 {
					t.Fatalf("endpoint %d started a flow at %v with the reference backlog empty", i, eng.Now())
				}
				deepest = max(deepest, ref.q.Len())
				started[i] = append(started[i], startedFlow{t0: g.eps[i].t0, limit: c.Limit(), want: ref.q.Pop()})
			},
		}
		if err := g.Add(ep); err != nil {
			t.Fatal(err)
		}
		// Hold each completion back by 0 to 3 ms, so the connection
		// sits idle with a backlog for a random time.
		done := c.OnSendComplete
		c.OnSendComplete = func() {
			if delays.Intn(2) == 0 {
				done()
				return
			}
			eng.After(sim.Time(delays.Intn(3000))*sim.Microsecond, done)
		}
	}
	g.Launch(warmup)
	for i := range refs {
		refs[i] = newRefBacklog(g, i, n, warmup)
	}
	eng.Run(until)

	flows := 0
	for i, fl := range started {
		e := g.eps[i]
		final := e.Fwd.Limit()
		for k, f := range fl {
			next := final
			if k+1 < len(fl) {
				next = fl[k+1].limit
			}
			segs := int32(next - f.limit)
			if f.t0 != f.want.at || segs != f.want.segs {
				t.Fatalf("endpoint %d flow %d: started (t0 %v, %d segs), reference head (t0 %v, %d segs)",
					i, k, f.t0, segs, f.want.at, f.want.segs)
			}
		}
		flows += len(fl)
		ref := refs[i]
		ref.catchUp(until)
		if e.pending != ref.q.Len() {
			t.Fatalf("endpoint %d: backlog %d, reference backlog %d", i, e.pending, ref.q.Len())
		}
		if len(fl)+e.pending != ref.pushed {
			t.Fatalf("endpoint %d: %d started + %d pending, reference saw %d arrivals", i, len(fl), e.pending, ref.pushed)
		}
	}
	if flows < 50 || deepest < 4 {
		t.Fatalf("%d flows started, deepest backlog %d: the comparison covers too little", flows, deepest)
	}
}

// TestReplayMatchesStoredBacklog pins the replayed backlog to the
// stored-queue algorithm it replaced: for every arrival kind, every
// size distribution and several seeds, each started flow carries the
// arrival time and size the stored queue's head would have.
func TestReplayMatchesStoredBacklog(t *testing.T) {
	for _, seed := range []uint64{1, 2, 0x5eed} {
		for _, kind := range []Kind{Poisson, Pareto} {
			for _, d := range []SizeDist{SizeFixed, SizePareto, SizeWebSearch, SizeDataMining} {
				spec := Spec{Kind: kind, FlowRate: 1000, SizeDist: d, Seed: seed}
				t.Run(fmt.Sprintf("%v/%v/seed%d", kind, d, seed), func(t *testing.T) { runReplayDiff(t, spec, seed) })
			}
		}
		name := fmt.Sprintf("replay-diff-%d", seed)
		RegisterTrace(name, replayTrace(seed))
		spec := Spec{Kind: Trace, TracePath: MemPrefix + name, Seed: seed}
		t.Run(fmt.Sprintf("trace/seed%d", seed), func(t *testing.T) { runReplayDiff(t, spec, seed) })
	}
}
