package cpu

import (
	"math"
	"testing"
	"unsafe"

	"cdna/internal/sim"
)

func newCPU() (*sim.Engine, *CPU) {
	eng := sim.New()
	return eng, New(eng, Params{SwitchCost: 1 * sim.Microsecond, Slice: 100 * sim.Microsecond})
}

func TestSingleTaskAccounting(t *testing.T) {
	eng, c := newCPU()
	d := c.NewDomain("guest", KindGuest)
	c.StartWindow()
	done := false
	d.Exec(CatKernel, 10*sim.Microsecond, sim.RawFn(func() { done = true }))
	eng.Run(sim.Millisecond)
	c.EndWindow()
	if !done {
		t.Fatal("task did not run")
	}
	k, u, h := d.DomainTime()
	if k != 10*sim.Microsecond || u != 0 || h != 0 {
		t.Fatalf("accounting: k=%v u=%v h=%v", k, u, h)
	}
	p := c.Profile()
	// One switch (1us) + 10us work + idle.
	if math.Abs(p.GuestOS-0.01) > 1e-9 {
		t.Fatalf("GuestOS = %v", p.GuestOS)
	}
	if math.Abs(p.Hyp-0.001) > 1e-9 {
		t.Fatalf("Hyp = %v (switch cost)", p.Hyp)
	}
	if math.Abs(p.Sum()-1) > 1e-9 {
		t.Fatalf("profile sum = %v", p.Sum())
	}
}

func TestCategoriesSplit(t *testing.T) {
	eng, c := newCPU()
	d := c.NewDomain("drv", KindDriver)
	c.StartWindow()
	d.Exec(CatKernel, 5*sim.Microsecond, sim.Fn{})
	d.Exec(CatUser, 7*sim.Microsecond, sim.Fn{})
	d.Exec(CatHyp, 3*sim.Microsecond, sim.Fn{})
	eng.Run(sim.Millisecond)
	c.EndWindow()
	p := c.Profile()
	if math.Abs(p.DriverOS-0.005) > 1e-9 || math.Abs(p.DriverUser-0.007) > 1e-9 {
		t.Fatalf("driver profile: %+v", p)
	}
	// Hyp = hypercall 3us + 1 switch 1us = 4us.
	if math.Abs(p.Hyp-0.004) > 1e-9 {
		t.Fatalf("Hyp = %v", p.Hyp)
	}
}

func TestTaskChainOrdering(t *testing.T) {
	eng, c := newCPU()
	d := c.NewDomain("g", KindGuest)
	var order []string
	d.Exec(CatKernel, sim.Microsecond, sim.RawFn(func() {
		order = append(order, "a")
		d.Exec(CatKernel, sim.Microsecond, sim.RawFn(func() { order = append(order, "c") }))
	}))
	d.Exec(CatKernel, sim.Microsecond, sim.RawFn(func() { order = append(order, "b") }))
	eng.Run(sim.Millisecond)
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestISRPreemptsAtBoundary(t *testing.T) {
	eng, c := newCPU()
	d := c.NewDomain("g", KindGuest)
	var order []string
	d.Exec(CatKernel, 10*sim.Microsecond, sim.RawFn(func() { order = append(order, "t1") }))
	d.Exec(CatKernel, 10*sim.Microsecond, sim.RawFn(func() { order = append(order, "t2") }))
	// Arrives mid-t1; must run before t2.
	eng.After(5*sim.Microsecond, func() {
		c.ExecISR(2*sim.Microsecond, sim.RawFn(func() { order = append(order, "isr") }))
	})
	eng.Run(sim.Millisecond)
	if len(order) != 3 || order[0] != "t1" || order[1] != "isr" || order[2] != "t2" {
		t.Fatalf("order = %v", order)
	}
}

func TestIdleAccounting(t *testing.T) {
	eng, c := newCPU()
	d := c.NewDomain("g", KindGuest)
	c.StartWindow()
	eng.After(500*sim.Microsecond, func() {
		d.Exec(CatKernel, 100*sim.Microsecond, sim.Fn{})
	})
	eng.Run(sim.Millisecond)
	c.EndWindow()
	p := c.Profile()
	// 500us idle before wake + (1000-601)us idle after = 899us idle.
	if math.Abs(p.Idle-0.899) > 1e-6 {
		t.Fatalf("Idle = %v, want 0.899", p.Idle)
	}
	if math.Abs(p.Sum()-1) > 1e-9 {
		t.Fatalf("sum = %v", p.Sum())
	}
}

func TestBoostOnWake(t *testing.T) {
	eng, c := newCPU()
	hog := c.NewDomain("hog", KindGuest)
	waker := c.NewDomain("waker", KindGuest)
	var order []string
	// Hog has lots of queued work.
	var refill func()
	refill = func() {
		hog.Exec(CatKernel, 50*sim.Microsecond, sim.RawFn(func() {
			order = append(order, "hog")
			if len(order) < 20 {
				refill()
			}
		}))
	}
	refill()
	refill()
	refill()
	// Waker becomes runnable mid-stream; must run at next slice boundary,
	// before the hog's remaining queue.
	eng.After(120*sim.Microsecond, func() {
		waker.Exec(CatKernel, sim.Microsecond, sim.RawFn(func() { order = append(order, "waker") }))
	})
	eng.Run(10 * sim.Millisecond)
	pos := -1
	for i, s := range order {
		if s == "waker" {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("waker never ran")
	}
	if pos > 4 {
		t.Fatalf("boosted waker ran too late: position %d in %v", pos, order)
	}
}

func TestSliceRoundRobinFairness(t *testing.T) {
	eng, c := newCPU()
	a := c.NewDomain("a", KindGuest)
	b := c.NewDomain("b", KindGuest)
	var at, bt sim.Time
	mk := func(d *Domain, acc *sim.Time) sim.Fn {
		var f sim.Fn
		f = sim.RawFn(func() {
			*acc += 20 * sim.Microsecond
			d.Exec(CatKernel, 20*sim.Microsecond, f)
		})
		return f
	}
	a.Exec(CatKernel, 20*sim.Microsecond, mk(a, &at))
	b.Exec(CatKernel, 20*sim.Microsecond, mk(b, &bt))
	eng.Run(20 * sim.Millisecond)
	ratio := float64(at) / float64(bt)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("unfair schedule: a=%v b=%v", at, bt)
	}
}

func TestDomainSwitchCostCharged(t *testing.T) {
	eng, c := newCPU()
	a := c.NewDomain("a", KindGuest)
	b := c.NewDomain("b", KindGuest)
	c.StartWindow()
	a.Exec(CatKernel, sim.Microsecond, sim.Fn{})
	eng.Run(50 * sim.Microsecond)
	b.Exec(CatKernel, sim.Microsecond, sim.Fn{})
	eng.Run(100 * sim.Microsecond)
	c.EndWindow()
	if got := c.Switches().Window(); got != 2 {
		t.Fatalf("switches = %d, want 2 (idle->a, a->b)", got)
	}
	p := c.Profile()
	// 2 switches * 1us over 100us window = 2%.
	if math.Abs(p.Hyp-0.02) > 1e-9 {
		t.Fatalf("Hyp = %v", p.Hyp)
	}
}

func TestNoSwitchCostSameDomain(t *testing.T) {
	eng, c := newCPU()
	a := c.NewDomain("a", KindGuest)
	c.StartWindow()
	a.Exec(CatKernel, sim.Microsecond, sim.Fn{})
	eng.Run(10 * sim.Microsecond)
	a.Exec(CatKernel, sim.Microsecond, sim.Fn{})
	eng.Run(20 * sim.Microsecond)
	c.EndWindow()
	if got := c.Switches().Window(); got != 1 {
		t.Fatalf("switches = %d, want 1 (re-dispatching the same domain is free)", got)
	}
}

func TestWakesCounter(t *testing.T) {
	eng, c := newCPU()
	d := c.NewDomain("g", KindGuest)
	d.Wakes().StartWindow()
	d.Exec(CatKernel, sim.Microsecond, sim.Fn{})
	d.Exec(CatKernel, sim.Microsecond, sim.Fn{}) // already runnable: no wake
	eng.Run(sim.Millisecond)
	d.Exec(CatKernel, sim.Microsecond, sim.Fn{}) // blocked again: wake
	eng.Run(2 * sim.Millisecond)
	if got := d.Wakes().Window(); got != 2 {
		t.Fatalf("wakes = %d, want 2", got)
	}
}

func TestZeroDurationTask(t *testing.T) {
	eng, c := newCPU()
	d := c.NewDomain("g", KindGuest)
	ran := false
	d.Exec(CatKernel, 0, sim.RawFn(func() { ran = true }))
	eng.Run(sim.Millisecond)
	if !ran {
		t.Fatal("zero-duration task did not run")
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	_, c := newCPU()
	d := c.NewDomain("g", KindGuest)
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration must panic")
		}
	}()
	d.Exec(CatKernel, -1, sim.Fn{})
}

func TestProfileSumsToOneUnderLoad(t *testing.T) {
	eng, c := newCPU()
	doms := []*Domain{
		c.NewDomain("drv", KindDriver),
		c.NewDomain("g1", KindGuest),
		c.NewDomain("g2", KindGuest),
	}
	rng := sim.NewRNG(5)
	for _, d := range doms {
		d := d
		var f sim.Fn
		f = sim.RawFn(func() {
			cat := Cat(rng.Intn(3))
			d.Exec(cat, sim.Time(rng.Intn(5000)+500), f)
		})
		d.Exec(CatKernel, sim.Microsecond, f)
	}
	eng.Run(10 * sim.Millisecond)
	c.StartWindow()
	eng.Run(60 * sim.Millisecond)
	c.EndWindow()
	p := c.Profile()
	// Tasks may straddle window edges; tolerance covers one task length.
	if math.Abs(p.Sum()-1) > 0.001 {
		t.Fatalf("profile sum = %v: %+v", p.Sum(), p)
	}
	if p.Idle > 0.01 {
		t.Fatalf("saturated CPU shows idle %v", p.Idle)
	}
}

func TestISRWhileIdleRunsImmediately(t *testing.T) {
	eng, c := newCPU()
	c.StartWindow()
	ran := sim.Time(-1)
	eng.After(100*sim.Microsecond, func() {
		c.ExecISR(2*sim.Microsecond, sim.RawFn(func() { ran = eng.Now() }))
	})
	eng.Run(sim.Millisecond)
	c.EndWindow()
	if ran != 102*sim.Microsecond {
		t.Fatalf("ISR completed at %v, want 102us", ran)
	}
	p := c.Profile()
	if math.Abs(p.Hyp-0.002) > 1e-9 {
		t.Fatalf("Hyp = %v", p.Hyp)
	}
}

// TestTaskSize pins a queued task at 32 bytes: the task's name is its
// Fn's label index, so no 16-byte name string rides in every queue
// slot.
func TestTaskSize(t *testing.T) {
	if n := unsafe.Sizeof(Task{}); n != 32 {
		t.Fatalf("Task is %d bytes, want 32", n)
	}
}
