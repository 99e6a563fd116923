package sim

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
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
	e.After(30, func() { order = append(order, 3) })
	e.After(10, func() { order = append(order, 1) })
	e.After(20, func() { order = append(order, 2) })
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
		e.At(50, func() { order = append(order, i) })
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
	e.At(100, func() { fired = true })
	e.Run(100)
	if fired {
		t.Fatal("event at the until-boundary must not fire")
	}
	e.Run(101)
	if !fired {
		t.Fatal("event should fire once the window passes it")
	}
}

// TestEngineCancel: a stopped timer is taken out of the queue and
// never fires; stopping it again is a no-op.
func TestEngineCancel(t *testing.T) {
	e := New()
	fired := false
	tm := e.NewTimer("x", func() { fired = true })
	tm.ArmAfter(10)
	if !tm.Armed() {
		t.Fatal("Armed() should be true before Stop")
	}
	tm.Stop()
	if tm.Armed() {
		t.Fatal("Armed() should be false after Stop")
	}
	tm.Stop() // double stop is a no-op
	e.Run(100)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", e.Fired())
	}
}

// TestEngineCancelMiddleOfQueue stops timers at the head, middle and
// inside of a queue of ten: the rest fire in order.
func TestEngineCancelMiddleOfQueue(t *testing.T) {
	e := New()
	var order []int
	timers := make([]*Timer, 0, 10)
	for i := 0; i < 10; i++ {
		i := i
		tm := e.NewTimer("ev", func() { order = append(order, i) })
		tm.Arm(Time(10 * (i + 1)))
		timers = append(timers, tm)
	}
	timers[3].Stop()
	timers[7].Stop()
	timers[0].Stop()
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", e.Pending())
	}
	e.Run(Second)
	want := []int{1, 2, 4, 5, 6, 8, 9}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
}

func TestEngineReschedulingFromCallback(t *testing.T) {
	e := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
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
	e.After(100, func() {})
	e.Run(200)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	e.At(50, func() {})
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay must panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineStep(t *testing.T) {
	e := New()
	n := 0
	e.After(10, func() { n++ })
	e.After(20, func() { n++ })
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
	a := e.NewTimer("a", func() {})
	a.ArmAfter(10)
	e.After(20, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	a.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending after stop = %d, want 1", e.Pending())
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
				e.After(Time(rng.Intn(1000)+1), gen)
			}
		}
		e.After(1, gen)
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
	e.AtFnKeyed(10, rec("k2"), SeqBand|2)
	e.AtFnKeyed(10, rec("k1"), SeqBand|1)
	e.AtFn(10, rec("c"))
	e.AtFn(5, rec("early"))
	e.Run(100)
	if want := []string{"early", "c", "k1", "k2"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("keyed event without SeqBand did not panic")
		}
	}()
	e.AtFnKeyed(200, Fn{}, 1)
}

// TestFnIdentity pins the registry: each new name bound by Bind or
// NewTimer takes the next label and a repeated name reuses its label, a
// bound callback counts in Binds, a named Fn without a callback does
// not, and every event carries its Fn's label.
func TestFnIdentity(t *testing.T) {
	e := New()
	if got := e.Binds(); got != 0 {
		t.Fatalf("fresh engine Binds = %d", got)
	}
	var fired int
	fn := e.Bind("a.first", func() { fired++ })
	if fn.id != 1 || e.Binds() != 1 {
		t.Fatalf("bound fn: id=%d binds=%d", fn.id, e.Binds())
	}
	if second := e.Bind("a.second", func() {}); second.id != 2 || e.Binds() != 2 {
		t.Fatalf("second bind: id=%d binds=%d", second.id, e.Binds())
	}
	cost := e.Bind("a.cost", nil)
	if cost.f != nil || cost.id != 3 || e.Binds() != 2 {
		t.Fatalf("cost-only fn: nil=%v id=%d binds=%d", cost.f == nil, cost.id, e.Binds())
	}
	cost.Call() // no callback: a no-op
	fn.Call()
	tr := e.Attach(8)
	e.AfterFn(5, fn)
	e.AfterFn(6, cost)
	e.AfterFn(7, fn.LabeledAs(cost)) // fn's callback, cost's label
	e.After(8, func() {})            // raw: unnamed
	e.Run(10)
	if fired != 3 {
		t.Fatalf("bound callback fired %d times, want 3 (Call + two events)", fired)
	}
	var names []string
	for _, te := range tr.Last(8) {
		names = append(names, te.Name)
	}
	if want := []string{"a.first", "a.cost", "a.cost", ""}; !reflect.DeepEqual(names, want) {
		t.Fatalf("traced names = %q, want %q", names, want)
	}

	var zero Fn
	zero.Call() // no-op by contract
	if zero.f != nil || zero.id != 0 || e.label(zero.id) != "" {
		t.Fatalf("zero Fn: nil=%v id=%d", zero.f == nil, zero.id)
	}
	if raw := RawFn(func() {}); raw.id != 0 || raw.f == nil {
		t.Fatalf("raw Fn: id=%d nil=%v", raw.id, raw.f == nil)
	}

	if e.Timers() != 0 {
		t.Fatalf("Timers = %d", e.Timers())
	}
	tm := e.NewTimer("a.timer", func() {})
	if e.Timers() != 1 || tm.ev.label != 4 || e.label(tm.ev.label) != "a.timer" {
		t.Fatalf("Timers = %d, timer label %d (%q) after NewTimer", e.Timers(), tm.ev.label, e.label(tm.ev.label))
	}
	// A repeated name shares its first index: it counts as a bind or a
	// timer again but adds no label.
	if again := e.Bind("a.first", func() {}); again.id != fn.id || e.Binds() != 3 {
		t.Fatalf("rebound name: id=%d (first %d) binds=%d", again.id, fn.id, e.Binds())
	}
	if tm2 := e.NewTimer("a.second", func() {}); tm2.ev.label != 2 || e.Timers() != 2 {
		t.Fatalf("timer under a bound name: label %d, Timers = %d", tm2.ev.label, e.Timers())
	}
	if got, want := e.labels, []string{"a.first", "a.second", "a.cost", "a.timer"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("labels = %q, want %q", got, want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Bind with an empty name did not panic")
		}
	}()
	e.Bind("", func() {})
}

// TestEventSize pins the pooled event at one 56-byte object: the label
// index sits where a 16-byte name string was, and no generation
// counter or engine pointer rides along.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 56 {
		t.Fatalf("Event is %d bytes, want 56", n)
	}
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
