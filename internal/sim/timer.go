package sim

// Timer is a reschedulable event: one persistent Event, bound to a
// callback once at creation, that re-arms in place. Components that fire
// repeatedly — retransmit timeouts, interrupt coalescers, periodic
// ticks — hold one Timer instead of scheduling a fresh closure per
// firing, so the steady state allocates nothing.
//
// Arming an already-armed timer moves it (the old firing is superseded),
// exactly like Cancel-then-reschedule but without queue churn: the event
// is re-keyed where it sits. Each re-arm consumes a fresh sequence
// number, so ties against other events resolve as if the timer had just
// been scheduled — semantics identical to the fresh-event pattern it
// replaces, which is what keeps the refactor byte-deterministic.
type Timer struct {
	eng *Engine
	ev  Event
}

// NewTimer creates a timer that runs fn when it fires. The callback is
// fixed for the timer's lifetime; per-firing state belongs on the
// component the callback is a method of. The timer starts unarmed.
func (e *Engine) NewTimer(name string, fn func()) *Timer {
	t := &Timer{eng: e}
	t.ev = Event{eng: e, name: name, fn: fn, index: -1, timer: true}
	e.timers++
	return t
}

// Timers returns the number of timers created — like Binds, a
// structural fingerprint of the machine that was built.
func (e *Engine) Timers() int { return e.timers }

// Arm schedules (or reschedules) the timer to fire at absolute time at.
func (t *Timer) Arm(at Time) {
	e := t.eng
	if at < e.now {
		panic("sim: timer " + t.ev.name + " armed in the past")
	}
	e.seq++
	t.ev.at, t.ev.seq = at, e.seq
	if t.ev.index >= 0 {
		e.q.reschedule(&t.ev)
	} else {
		e.q.push(&t.ev)
	}
}

// ArmAfter schedules (or reschedules) the timer d nanoseconds from now.
func (t *Timer) ArmAfter(d Time) {
	if d < 0 {
		panic("sim: timer " + t.ev.name + " armed with negative delay")
	}
	t.Arm(t.eng.now + d)
}

// ArmKeyed schedules (or reschedules) the timer to fire at absolute
// time at with an explicit sequence key (see AtFnKeyed): the key, not
// the arming moment, decides ordering against other same-time events.
// The multi-host fault injector arms itself this way so a fault applies
// after every ordinary event at its instant.
func (t *Timer) ArmKeyed(at Time, key uint64) {
	e := t.eng
	if at < e.now {
		panic("sim: timer " + t.ev.name + " armed in the past")
	}
	if key&SeqBand == 0 {
		panic("sim: timer " + t.ev.name + " armed with keyless sequence")
	}
	t.ev.at, t.ev.seq = at, key
	if t.ev.index >= 0 {
		e.q.reschedule(&t.ev)
	} else {
		e.q.push(&t.ev)
	}
}

// Stop disarms the timer if it is armed. The timer can be re-armed.
func (t *Timer) Stop() {
	if t.ev.index >= 0 {
		t.eng.q.remove(&t.ev)
	}
}

// Armed reports whether the timer is scheduled to fire.
func (t *Timer) Armed() bool { return t.ev.index >= 0 }

// When returns the time the timer will fire (meaningful only if Armed).
func (t *Timer) When() Time { return t.ev.at }
