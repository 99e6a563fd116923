package sim

import "testing"

func TestEventPoolRecycles(t *testing.T) {
	e := New()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		e.After(1, fn)
		e.Step()
	}
	if len(e.free) == 0 || len(e.free) > 2 {
		t.Fatalf("free list holds %d events after a fire loop, want 1-2", len(e.free))
	}
}

// The tentpole regression: schedule→fire→recycle must not allocate once
// the pool is warm.
func TestScheduleFireRecycleZeroAllocs(t *testing.T) {
	e := New()
	fn := func() {}
	e.After(1, fn)
	e.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule→fire→recycle allocates %.1f/op, want 0", allocs)
	}
}

// TestCancelPathZeroAllocs: taking a firing back — Timer.Stop unlinking
// the event from its wheel slot, next to a standing event — and
// re-arming it allocate nothing.
func TestCancelPathZeroAllocs(t *testing.T) {
	e := New()
	e.After(1, func() {})
	tm := e.NewTimer("t", func() {})
	allocs := testing.AllocsPerRun(1000, func() {
		tm.ArmAfter(1)
		tm.Stop()
	})
	if allocs != 0 {
		t.Fatalf("arm→stop allocates %.1f/op, want 0", allocs)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want the standing event only", e.Pending())
	}
}

func TestTimerRearmZeroAllocs(t *testing.T) {
	e := New()
	var tm *Timer
	tm = e.NewTimer("tick", func() { tm.ArmAfter(10) })
	tm.ArmAfter(10)
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("timer re-arm allocates %.1f/op, want 0", allocs)
	}
}

func TestTimerFires(t *testing.T) {
	e := New()
	count := 0
	tm := e.NewTimer("t", func() { count++ })
	tm.ArmAfter(10)
	if !tm.Armed() || tm.When() != 10 {
		t.Fatalf("Armed=%v When=%v", tm.Armed(), tm.When())
	}
	e.Run(100)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestTimerRearmMovesFiring(t *testing.T) {
	e := New()
	var at Time
	tm := e.NewTimer("t", func() { at = e.Now() })
	tm.ArmAfter(10)
	tm.ArmAfter(50) // supersedes: must fire once, at 50
	e.Run(100)
	if at != 50 {
		t.Fatalf("fired at %v, want 50", at)
	}
	if e.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", e.Fired())
	}
}

func TestTimerStop(t *testing.T) {
	e := New()
	tm := e.NewTimer("t", func() { t.Fatal("stopped timer fired") })
	tm.ArmAfter(10)
	tm.Stop()
	if tm.Armed() {
		t.Fatal("Armed after Stop")
	}
	tm.Stop() // idempotent
	e.Run(100)
	// Re-arm after Stop still works.
	fired := false
	tm2 := e.NewTimer("t2", func() { fired = true })
	tm2.ArmAfter(10)
	tm2.Stop()
	tm2.ArmAfter(20)
	e.Run(200)
	if !fired {
		t.Fatal("re-armed timer did not fire")
	}
}

func TestTimerSelfRearmInCallback(t *testing.T) {
	e := New()
	count := 0
	var tm *Timer
	tm = e.NewTimer("tick", func() {
		count++
		if count < 5 {
			tm.ArmAfter(10)
		}
	})
	tm.ArmAfter(10)
	e.Run(Second)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

// TestTimerThinkLoopRearm is the RPC think-time pattern: a timer whose
// callback does work, then re-arms itself with a jittered delay, racing
// other traffic events. The firing count must be deterministic across
// reruns, the timer must stay armed between firings, and a Stop from
// inside the callback must end the loop cleanly (re-armable later).
func TestTimerThinkLoopRearm(t *testing.T) {
	run := func() (int, Time) {
		e := New()
		rng := NewRNG(7)
		fired := 0
		var last Time
		var tm *Timer
		tm = e.NewTimer("think", func() {
			fired++
			last = e.Now()
			if fired >= 20 {
				tm.Stop() // inside own callback: already dequeued, must not panic
				return
			}
			tm.ArmAfter(rng.Jitter(Millisecond, 0.5))
		})
		// Background traffic contending for tied timestamps.
		var bg *Timer
		bg = e.NewTimer("bg", func() { bg.ArmAfter(Millisecond) })
		bg.ArmAfter(Millisecond)
		tm.ArmAfter(Millisecond)
		e.Run(Second)
		if tm.Armed() {
			t.Fatal("think timer armed after its loop stopped")
		}
		// The stopped timer is re-armable: one more firing.
		tm.ArmAfter(Millisecond)
		e.Run(e.Now() + 2*Millisecond)
		return fired, last
	}
	f1, l1 := run()
	f2, l2 := run()
	if f1 != 21 {
		t.Fatalf("fired %d times, want 20 loop firings + 1 re-arm", f1)
	}
	if f1 != f2 || l1 != l2 {
		t.Fatalf("think loop nondeterministic: (%d,%v) vs (%d,%v)", f1, l1, f2, l2)
	}
}

// A timer re-armed at a tied timestamp behaves like a freshly scheduled
// event: it consumes a new sequence number, so it fires after events
// already queued at that time — the same semantics as the
// cancel-and-reschedule pattern the Timer replaces.
func TestTimerRearmSequencesLikeFreshEvent(t *testing.T) {
	e := New()
	var order []string
	tm := e.NewTimer("timer", func() { order = append(order, "timer") })
	tm.ArmAfter(50)
	e.At(50, func() { order = append(order, "a") })
	tm.ArmAfter(50) // re-arm: now sequences after "a"
	e.Run(100)
	if len(order) != 2 || order[0] != "a" || order[1] != "timer" {
		t.Fatalf("order = %v, want [a timer]", order)
	}
}

func TestPendingCountsTimers(t *testing.T) {
	e := New()
	tm := e.NewTimer("t", func() {})
	tm.ArmAfter(10)
	e.After(20, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	tm.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending after Stop = %d, want 1", e.Pending())
	}
}

// Queue stress: interleaved schedules, timer stops and timer re-arms
// must preserve (time, seq) execution order exactly.
func TestHeapStressWithCancels(t *testing.T) {
	e := New()
	rng := NewRNG(1234)
	var fireTimes []Time
	record := func() { fireTimes = append(fireTimes, e.Now()) }
	timers := make([]*Timer, 64)
	for i := range timers {
		timers[i] = e.NewTimer("stress", record)
	}
	stopped := 0
	for i := 0; i < 2000; i++ {
		tm := timers[rng.Intn(len(timers))]
		switch rng.Intn(4) {
		case 0:
			e.At(e.Now()+Time(rng.Intn(500)), record)
		case 1:
			tm.Arm(e.Now() + Time(rng.Intn(500)))
		case 2:
			if tm.Armed() {
				stopped++
			}
			tm.Stop()
		case 3:
			// Re-arm after a stop: the unlinked event goes back in.
			tm.Stop()
			tm.Arm(e.Now() + Time(rng.Intn(500)))
		}
		if rng.Intn(4) == 0 {
			e.Step()
		}
	}
	if stopped == 0 {
		t.Fatal("stream stopped no armed timer")
	}
	e.Run(Second)
	for i := 1; i < len(fireTimes); i++ {
		if fireTimes[i] < fireTimes[i-1] {
			t.Fatalf("out-of-order firing at %d: %v after %v", i, fireTimes[i], fireTimes[i-1])
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// TestTimerArmKeyed: a keyed re-arm moves the timer like Arm, but its
// key — not the arming moment — orders it after the counter events at
// its instant.
func TestTimerArmKeyed(t *testing.T) {
	e := New()
	var order []string
	tm := e.NewTimer("fault", func() { order = append(order, "timer") })
	tm.ArmKeyed(20, SeqBand|7)
	tm.ArmKeyed(10, SeqBand|7) // re-arm an armed timer in place
	e.At(10, func() { order = append(order, "ev") })
	e.Run(100)
	if len(order) != 2 || order[0] != "ev" || order[1] != "timer" {
		t.Fatalf("order = %v, want [ev timer]", order)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("keyless ArmKeyed did not panic")
		}
	}()
	tm.ArmKeyed(200, 7)
}
