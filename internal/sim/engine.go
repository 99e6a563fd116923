// Package sim provides a deterministic discrete-event simulation engine
// with nanosecond resolution. All model components in this repository are
// driven by a single Engine; determinism is guaranteed by a strict
// (time, sequence) ordering of events and by the absence of goroutines in
// the simulation core.
//
// The engine is the simulator's hot path: every packet the models move
// costs several events, so the core is built for zero steady-state
// allocation. Event objects are recycled through a free list and handed
// out as value-type Handles carrying a generation counter, cancelled
// events are removed from the queue eagerly, and components that fire
// repeatedly use a Timer — one persistent event re-armed in place —
// instead of scheduling fresh events. The event queue is a hierarchical
// timing wheel (sched_wheel.go) with O(1) amortized schedule, cancel
// and same-timestamp batch dispatch; it is the only queue, and a
// sorted-slice oracle in the tests pins its exact (time, sequence)
// order. See DESIGN.md ("Foundation", "Scheduler").
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
// (or by a Timer) and referenced externally only through Handles, which
// carry a generation counter so a reference to a recycled event is
// detectably stale.
type Event struct {
	at    Time
	seq   uint64
	name  string
	fn    func()
	eng   *Engine
	next  *Event // intrusive wheel-slot list links (nil when unqueued)
	prev  *Event
	index int32  // wheel slot (or overflowIdx); -1 when not queued
	gen   uint32 // bumped on every recycle; stale Handles mismatch
	timer bool   // owned by a Timer, never returned to the pool
}

// Handle refers to a scheduled event. The zero Handle is valid and
// refers to nothing. Handles are values: copying one is free, and a
// Handle outliving its event is safe — once the event fires or is
// cancelled and recycled, the generation counter no longer matches and
// every method degrades to a no-op.
type Handle struct {
	ev  *Event
	gen uint32
}

// Scheduled reports whether the event is still queued to fire.
func (h Handle) Scheduled() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.index >= 0
}

// When returns the time the event is scheduled to fire, or 0 if the
// handle is stale.
func (h Handle) When() Time {
	if !h.Scheduled() {
		return 0
	}
	return h.ev.at
}

// Cancel removes the event from the queue and recycles it. Cancelling a
// fired, already-cancelled, or stale handle is a no-op — in particular,
// cancelling an old handle to an event that has since been recycled for
// a different purpose must not (and does not) disturb the new event.
func (h Handle) Cancel() {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.index < 0 {
		return
	}
	e := ev.eng
	e.q.remove(ev)
	e.release(ev)
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

	// Registry sizes (fn.go, timer.go): callbacks bound and timers
	// created during machine construction.
	binds  int32
	timers int
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

// Pending returns the number of scheduled, uncancelled events. Cancelled
// events are removed from the queue eagerly, so this is the exact queue
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
	return &Event{eng: e, index: -1}
}

// release recycles a fired or cancelled event. Timer-owned events are
// persistent and never enter the pool.
func (e *Engine) release(ev *Event) {
	if ev.timer {
		return
	}
	ev.gen++
	ev.fn = nil
	ev.name = ""
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a model bug. The callback is raw (see
// RawFn): fine for tests and tooling, but model layers schedule bound
// callbacks through AtFn, which allocate no closure per event.
func (e *Engine) At(t Time, name string, fn func()) Handle {
	return e.AtFn(t, name, RawFn(fn))
}

// AtFn schedules a registered callback to run at absolute time t.
func (e *Engine) AtFn(t Time, name string, fn Fn) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, t, e.now))
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.seq, ev.name, ev.fn = t, e.seq, name, fn.f
	e.q.push(ev)
	return Handle{ev: ev, gen: ev.gen}
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
func (e *Engine) AtFnKeyed(t Time, name string, fn Fn, key uint64) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, t, e.now))
	}
	if key&SeqBand == 0 {
		panic(fmt.Sprintf("sim: keyed event %q without SeqBand in key %#x", name, key))
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.name, ev.fn = t, key, name, fn.f
	e.q.push(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, name string, fn func()) Handle {
	return e.AfterFn(d, name, RawFn(fn))
}

// AfterFn schedules a registered callback d nanoseconds from now.
func (e *Engine) AfterFn(d Time, name string, fn Fn) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: event %q scheduled with negative delay %v", name, d))
	}
	return e.AtFn(e.now+d, name, fn)
}

// fire executes the already-dequeued event ev. Pooled events are
// recycled before the callback runs, so a schedule→fire→recycle loop
// reuses one Event object and never allocates.
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	fn := ev.fn
	e.fired++
	if e.tracer != nil {
		e.tracer.record(ev.at, ev.name)
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
