// Package sim provides a deterministic discrete-event simulation engine
// with nanosecond resolution. All model components in this repository are
// driven by a single Engine; determinism is guaranteed by a strict
// (time, sequence) ordering of events and by the absence of goroutines in
// the simulation core.
//
// The engine is the simulator's hot path: every packet the models move
// costs several events, so the core is built for zero steady-state
// allocation. A scheduled event is fire-and-forget: the schedule calls
// return nothing, and the Event object goes back to a free list the
// moment it fires. Components that fire repeatedly, or must take a
// firing back, use a Timer — one persistent event re-armed or stopped
// in place. Each event is named once, where its callback is bound
// (Bind, NewTimer): the engine keeps a label table and an event
// carries only the label's index, which the flight recorder resolves.
// The event queue is a hierarchical timing wheel (sched_wheel.go) with
// O(1) amortized schedule, stop and same-timestamp batch dispatch; it
// is the only queue, and a sorted-slice oracle in the tests pins its
// exact (time, sequence) order. See DESIGN.md ("Foundation",
// "Scheduler").
package sim

import "fmt"

// Time is a simulated timestamp or duration in nanoseconds.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats a Time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Event is a scheduled callback. Events are owned by the Engine's pool
// (or by a Timer) and never referenced by callers: a pooled event is
// recycled when it fires, a Timer's is re-keyed or unlinked in place.
type Event struct {
	at    Time
	seq   uint64
	fn    func()
	next  *Event // intrusive wheel-slot list links (nil when unqueued)
	prev  *Event
	index int32 // wheel slot (or overflowIdx); -1 when not queued
	label int32 // index into the engine's label table (see Fn)
	timer bool  // owned by a Timer, never returned to the pool
}

// Engine is the discrete-event simulator core.
type Engine struct {
	now     Time
	seq     uint64
	free    []*Event // recycled events
	running bool
	fired   uint64
	tracer  *Tracer
	q       wheelSched // the event queue

	// The registry (fn.go, timer.go), filled during machine
	// construction: each distinct label of a named Fn or Timer once, in
	// first-use order, its index by name, and how many callbacks were
	// bound and timers created.
	labels  []string
	labelID map[string]int32
	binds   int
	timers  int
}

// New returns an Engine with the clock at zero.
func New() *Engine {
	e := &Engine{}
	e.q.init(tickShift)
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (useful for tests
// and for sanity-checking experiment complexity).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled events. A stopped Timer is
// unlinked from the queue eagerly, so this is the exact queue
// population — O(1), not a scan.
func (e *Engine) Pending() int { return e.q.len() }

// alloc takes an event from the free list, or grows the pool.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{index: -1}
}

// release recycles a fired event. Timer-owned events are persistent and
// never enter the pool.
func (e *Engine) release(ev *Event) {
	if ev.timer {
		return
	}
	ev.fn = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a model bug. The callback is raw (see
// RawFn): fine for tests and tooling, but model layers schedule bound
// callbacks through AtFn, which allocate no closure per event and name
// the event.
func (e *Engine) At(t Time, fn func()) { e.AtFn(t, RawFn(fn)) }

// AtFn schedules a registered callback to run at absolute time t.
func (e *Engine) AtFn(t Time, fn Fn) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", e.label(fn.id), t, e.now))
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.seq, ev.fn, ev.label = t, e.seq, fn.f, fn.id
	e.q.push(ev)
}

// SeqBand is the high sequence bit that separates key-sequenced events
// (AtFnKeyed) from counter-sequenced ones: any keyed sequence has it
// set, so keyed events order after every counter-sequenced event at the
// same instant, regardless of scheduling order. Counter sequences can
// never reach it (2^62 events is beyond any feasible run).
const SeqBand uint64 = 1 << 62

// AtFnKeyed schedules a registered callback at absolute time t with an
// explicit sequence key instead of the engine counter. The key decides
// ordering among same-time events, which makes the order a pure function
// of the caller's key assignment rather than of when each event was
// scheduled. Keys must have SeqBand set
// (checked) and be unique among pending events; the engine counter is
// not consumed.
func (e *Engine) AtFnKeyed(t Time, fn Fn, key uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", e.label(fn.id), t, e.now))
	}
	if key&SeqBand == 0 {
		panic(fmt.Sprintf("sim: keyed event %q without SeqBand in key %#x", e.label(fn.id), key))
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn, ev.label = t, key, fn.f, fn.id
	e.q.push(ev)
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) { e.AfterFn(d, RawFn(fn)) }

// AfterFn schedules a registered callback d nanoseconds from now.
func (e *Engine) AfterFn(d Time, fn Fn) {
	if d < 0 {
		panic(fmt.Sprintf("sim: event %q scheduled with negative delay %v", e.label(fn.id), d))
	}
	e.AtFn(e.now+d, fn)
}

// fire executes the already-dequeued event ev. Pooled events are
// recycled before the callback runs, so a schedule→fire→recycle loop
// reuses one Event object and never allocates.
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	fn := ev.fn
	e.fired++
	if e.tracer != nil {
		e.tracer.record(ev.at, e.label(ev.label))
	}
	e.release(ev)
	if fn != nil {
		fn()
	}
}

// Run executes events in order until the clock reaches the until
// timestamp or the event queue drains. Events scheduled exactly at
// `until` do not run; the clock is left at `until` (or at the last event
// time if the queue drained earlier).
//
// Events sharing a timestamp are batch-dispatched: after the first
// event at a time fires, the remaining ones (including any the
// callbacks schedule at the same instant) drain straight off the
// current wheel slot in (time, sequence) order without re-probing the
// queue hierarchy per event.
func (e *Engine) Run(until Time) {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		ev := e.q.peek()
		if ev == nil || ev.at >= until {
			break
		}
		e.q.pop(ev)
		e.fire(ev)
		for {
			nxt := e.q.popAt(e.now)
			if nxt == nil {
				break
			}
			e.fire(nxt)
		}
	}
	if e.now < until {
		e.now = until
	}
}

// Step executes exactly one pending event and reports whether an event
// ran.
func (e *Engine) Step() bool {
	ev := e.q.peek()
	if ev == nil {
		return false
	}
	e.q.pop(ev)
	e.fire(ev)
	return true
}
