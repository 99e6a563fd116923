package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds() = %v, want 1.5", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.After(30, "c", func() { order = append(order, 3) })
	e.After(10, "a", func() { order = append(order, 1) })
	e.After(20, "b", func() { order = append(order, 2) })
	e.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(50, "tie", func() { order = append(order, i) })
	}
	e.Run(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineRunBoundaryExclusive(t *testing.T) {
	e := New()
	fired := false
	e.At(100, "edge", func() { fired = true })
	e.Run(100)
	if fired {
		t.Fatal("event at the until-boundary must not fire")
	}
	e.Run(101)
	if !fired {
		t.Fatal("event should fire once the window passes it")
	}
}

func TestEngineCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.After(10, "x", func() { fired = true })
	if !ev.Scheduled() {
		t.Fatal("Scheduled() should be true before Cancel")
	}
	ev.Cancel()
	if ev.Scheduled() {
		t.Fatal("Scheduled() should be false after Cancel")
	}
	ev.Cancel() // double-cancel is a no-op
	e.Run(100)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", e.Fired())
	}
}

func TestEngineCancelMiddleOfQueue(t *testing.T) {
	e := New()
	var order []int
	handles := make([]Handle, 0, 10)
	for i := 0; i < 10; i++ {
		i := i
		handles = append(handles, e.At(Time(10*(i+1)), "ev", func() { order = append(order, i) }))
	}
	handles[3].Cancel()
	handles[7].Cancel()
	handles[0].Cancel()
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", e.Pending())
	}
	e.Run(Second)
	want := []int{1, 2, 4, 5, 6, 8, 9}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestEngineReschedulingFromCallback(t *testing.T) {
	e := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(10, "tick", tick)
		}
	}
	e.After(10, "tick", tick)
	e.Run(Second)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != Second {
		t.Fatalf("clock = %v, want 1s", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.After(100, "later", func() {})
	e.Run(200)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	e.At(50, "past", func() {})
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay must panic")
		}
	}()
	e.After(-1, "neg", func() {})
}

func TestEngineStep(t *testing.T) {
	e := New()
	n := 0
	e.After(10, "a", func() { n++ })
	e.After(20, "b", func() { n++ })
	if !e.Step() || n != 1 || e.Now() != 10 {
		t.Fatalf("first Step: n=%d now=%v", n, e.Now())
	}
	if !e.Step() || n != 2 || e.Now() != 20 {
		t.Fatalf("second Step: n=%d now=%v", n, e.Now())
	}
	if e.Step() {
		t.Fatal("Step on empty queue must return false")
	}
}

func TestEnginePending(t *testing.T) {
	e := New()
	a := e.After(10, "a", func() {})
	e.After(20, "b", func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	a.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", e.Pending())
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := New()
		var stamps []Time
		rng := NewRNG(42)
		var gen func()
		gen = func() {
			stamps = append(stamps, e.Now())
			if len(stamps) < 50 {
				e.After(Time(rng.Intn(1000)+1), "gen", gen)
			}
		}
		e.After(1, "gen", gen)
		e.Run(Second)
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timestamp %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(3)
	if err := quick.Check(func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(11)
	d := 1000 * Microsecond
	for i := 0; i < 1000; i++ {
		j := r.Jitter(d, 0.1)
		if j < Time(float64(d)*0.9) || j > Time(float64(d)*1.1) {
			t.Fatalf("jitter out of bounds: %v", j)
		}
	}
}

// TestKeyedEventsOrderAfterCounter: a keyed event sorts after every
// counter-sequenced event at its instant, whenever it was scheduled,
// and keyed events order among themselves by key, not by scheduling
// order.
func TestKeyedEventsOrderAfterCounter(t *testing.T) {
	e := New()
	var order []string
	rec := func(s string) Fn { return RawFn(func() { order = append(order, s) }) }
	e.AtFnKeyed(10, "k2", rec("k2"), SeqBand|2)
	e.AtFnKeyed(10, "k1", rec("k1"), SeqBand|1)
	e.AtFn(10, "c", rec("c"))
	e.AtFn(5, "early", rec("early"))
	e.Run(100)
	if want := []string{"early", "c", "k1", "k2"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("keyed event without SeqBand did not panic")
		}
	}()
	e.AtFnKeyed(200, "bad", Fn{}, 1)
}

func TestFnIdentity(t *testing.T) {
	e := New()
	if got := e.Binds(); got != 0 {
		t.Fatalf("fresh engine Binds = %d", got)
	}
	var fired int
	fn := e.Bind(func() { fired++ })
	if fn.Nil() || fn.ID() != 1 || e.Binds() != 1 {
		t.Fatalf("bound fn: nil=%v id=%d binds=%d", fn.Nil(), fn.ID(), e.Binds())
	}
	if second := e.Bind(func() {}); second.ID() != 2 || e.Binds() != 2 {
		t.Fatalf("second bind: id=%d binds=%d", second.ID(), e.Binds())
	}
	fn.Call()
	e.AfterFn(5, "bound", fn)
	e.Run(10)
	if fired != 2 {
		t.Fatalf("bound callback fired %d times, want 2 (Call + event)", fired)
	}

	var zero Fn
	zero.Call() // no-op by contract
	if !zero.Nil() || zero.ID() != 0 {
		t.Fatalf("zero Fn: nil=%v id=%d", zero.Nil(), zero.ID())
	}
	if raw := RawFn(func() {}); raw.ID() != -1 || raw.Nil() {
		t.Fatalf("raw Fn: id=%d nil=%v", raw.ID(), raw.Nil())
	}
	if rawNil := RawFn(nil); !rawNil.Nil() || rawNil.ID() != 0 {
		t.Fatalf("RawFn(nil): nil=%v id=%d", rawNil.Nil(), rawNil.ID())
	}

	if e.Timers() != 0 {
		t.Fatalf("Timers = %d", e.Timers())
	}
	e.NewTimer("t", func() {})
	if e.Timers() != 1 {
		t.Fatalf("Timers = %d after NewTimer", e.Timers())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Bind(nil) did not panic")
		}
	}()
	e.Bind(nil)
}

// TestRNGExpAndPareto: both draws replay from the seed, stay in their
// support, and have the closed-form mean (Exp: mean; Pareto with
// alpha > 2: alpha*xm/(alpha-1), finite variance) within 5%.
func TestRNGExpAndPareto(t *testing.T) {
	const n = 20000
	a, b := NewRNG(13), NewRNG(13)
	var sumExp, sumPar float64
	for i := 0; i < n; i++ {
		x, y := a.Exp(2), a.Pareto(3, 1)
		if x != b.Exp(2) || y != b.Pareto(3, 1) {
			t.Fatalf("draw %d does not replay from the seed", i)
		}
		if x < 0 || y < 1 {
			t.Fatalf("draw %d out of support: Exp %v, Pareto %v", i, x, y)
		}
		sumExp += x
		sumPar += y
	}
	if m := sumExp / n; m < 1.9 || m > 2.1 {
		t.Errorf("Exp(2) sample mean %.3f, want 2±5%%", m)
	}
	if m := sumPar / n; m < 1.425 || m > 1.575 {
		t.Errorf("Pareto(3, 1) sample mean %.3f, want 1.5±5%%", m)
	}
}
