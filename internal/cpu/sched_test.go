package cpu

// Tests for the scheduler mechanisms the multi-guest results depend on:
// intra-domain interrupt priority (ExecFront), wake preemption (credit
// BOOST), and the cache-refill penalty model.

import (
	"testing"

	"cdna/internal/sim"
)

func TestExecFrontRunsBeforeQueuedWork(t *testing.T) {
	eng := sim.New()
	c := New(eng, Params{Slice: sim.Millisecond})
	d := c.NewDomain("g", KindGuest)
	var order []string
	// Build a long queue of process-context work.
	for i := 0; i < 5; i++ {
		d.Exec(CatKernel, 10*sim.Microsecond, sim.RawFn(func() { order = append(order, "proc") }))
	}
	// An interrupt arrives mid-stream: its top half runs at the next
	// task boundary, not after the whole queue.
	eng.After(15*sim.Microsecond, func() {
		d.ExecFront(CatKernel, sim.Microsecond, sim.RawFn(func() { order = append(order, "virq") }))
	})
	eng.Run(sim.Millisecond)
	pos := -1
	for i, s := range order {
		if s == "virq" {
			pos = i
		}
	}
	if pos < 0 || pos > 2 {
		t.Fatalf("virq ran at position %d in %v, want near the front", pos, order)
	}
}

func TestExecFrontWakesBlockedDomain(t *testing.T) {
	eng := sim.New()
	c := New(eng, Params{Slice: sim.Millisecond})
	d := c.NewDomain("g", KindGuest)
	ran := false
	d.ExecFront(CatKernel, sim.Microsecond, sim.RawFn(func() { ran = true }))
	eng.Run(sim.Millisecond)
	if !ran {
		t.Fatal("ExecFront on a blocked domain did not run")
	}
	if d.Wakes().Total() != 1 {
		t.Fatalf("wakes = %d", d.Wakes().Total())
	}
}

func TestWakePreemption(t *testing.T) {
	eng := sim.New()
	c := New(eng, Params{Slice: 10 * sim.Millisecond}) // long slices: only preemption can interleave
	hog := c.NewDomain("hog", KindGuest)
	io := c.NewDomain("io", KindGuest)
	var ioRanAt sim.Time
	var refill sim.Fn
	refill = sim.RawFn(func() { hog.Exec(CatKernel, 20*sim.Microsecond, refill) })
	refill.Call()
	eng.After(100*sim.Microsecond, func() {
		io.Exec(CatKernel, sim.Microsecond, sim.RawFn(func() { ioRanAt = eng.Now() }))
	})
	eng.Run(5 * sim.Millisecond)
	if ioRanAt == 0 {
		t.Fatal("woken domain never ran")
	}
	// Without preemption it would wait for the 10ms slice; with BOOST
	// preemption it runs within a task length or two.
	if ioRanAt > 250*sim.Microsecond {
		t.Fatalf("woken domain ran at %v; BOOST preemption should run it almost immediately", ioRanAt)
	}
}

func TestCachePenaltyColdStart(t *testing.T) {
	eng := sim.New()
	p := Params{Slice: sim.Millisecond, CacheRefillUnit: 1000, CacheRefillCap: 8000}
	c := New(eng, p)
	d := c.NewDomain("g", KindGuest)
	c.StartWindow()
	d.Exec(CatKernel, 10*sim.Microsecond, sim.Fn{})
	eng.Run(sim.Millisecond)
	c.EndWindow()
	k, _, _ := d.DomainTime()
	// First-ever dispatch: full cap charged on top of the task.
	want := 10*sim.Microsecond + p.CacheRefillCap
	if k != want {
		t.Fatalf("kernel time = %v, want %v (task + cold-start cap)", k, want)
	}
}

func TestCachePenaltyWarmSameDomain(t *testing.T) {
	eng := sim.New()
	p := Params{Slice: sim.Millisecond, CacheRefillUnit: 1000, CacheRefillCap: 8000}
	c := New(eng, p)
	d := c.NewDomain("g", KindGuest)
	d.Exec(CatKernel, 10*sim.Microsecond, sim.Fn{})
	eng.Run(sim.Millisecond)
	c.StartWindow()
	// Re-running the same domain after idle: no other domain polluted
	// the cache, so no penalty.
	d.Exec(CatKernel, 10*sim.Microsecond, sim.Fn{})
	eng.Run(2 * sim.Millisecond)
	c.EndWindow()
	k, _, _ := d.DomainTime()
	if k != 10*sim.Microsecond {
		t.Fatalf("kernel time = %v, want exactly 10us (warm cache)", k)
	}
}

func TestCachePenaltyGrowsWithInterveningDomains(t *testing.T) {
	measure := func(nOthers int) sim.Time {
		eng := sim.New()
		p := Params{Slice: sim.Millisecond, CacheRefillUnit: 1000, CacheRefillCap: 100000}
		c := New(eng, p)
		target := c.NewDomain("target", KindGuest)
		others := make([]*Domain, nOthers)
		for i := range others {
			others[i] = c.NewDomain("other", KindGuest)
		}
		// Warm everything up once.
		target.Exec(CatKernel, sim.Microsecond, sim.Fn{})
		for _, o := range others {
			o.Exec(CatKernel, sim.Microsecond, sim.Fn{})
		}
		eng.Run(sim.Millisecond)
		// One round: all others run, then the target.
		for _, o := range others {
			o.Exec(CatKernel, sim.Microsecond, sim.Fn{})
		}
		eng.Run(2 * sim.Millisecond)
		c.StartWindow()
		target.Exec(CatKernel, 10*sim.Microsecond, sim.Fn{})
		eng.Run(3 * sim.Millisecond)
		c.EndWindow()
		k, _, _ := target.DomainTime()
		return k
	}
	k2 := measure(2)
	k6 := measure(6)
	if k6 <= k2 {
		t.Fatalf("penalty with 6 intervening domains (%v) should exceed 2 (%v)", k6, k2)
	}
}

func TestCachePenaltyCapped(t *testing.T) {
	eng := sim.New()
	p := Params{Slice: sim.Millisecond, CacheRefillUnit: 1000, CacheRefillCap: 3000}
	c := New(eng, p)
	target := c.NewDomain("target", KindGuest)
	var others []*Domain
	for i := 0; i < 20; i++ {
		others = append(others, c.NewDomain("other", KindGuest))
	}
	target.Exec(CatKernel, sim.Microsecond, sim.Fn{})
	for _, o := range others {
		o.Exec(CatKernel, sim.Microsecond, sim.Fn{})
	}
	eng.Run(sim.Millisecond)
	for _, o := range others {
		o.Exec(CatKernel, sim.Microsecond, sim.Fn{})
	}
	eng.Run(2 * sim.Millisecond)
	c.StartWindow()
	target.Exec(CatKernel, 10*sim.Microsecond, sim.Fn{})
	eng.Run(3 * sim.Millisecond)
	c.EndWindow()
	k, _, _ := target.DomainTime()
	if k != 10*sim.Microsecond+p.CacheRefillCap {
		t.Fatalf("kernel time = %v, want task + cap %v", k, 10*sim.Microsecond+p.CacheRefillCap)
	}
}

func TestZeroCacheUnitDisablesPenalty(t *testing.T) {
	eng := sim.New()
	c := New(eng, Params{Slice: sim.Millisecond})
	a := c.NewDomain("a", KindGuest)
	b := c.NewDomain("b", KindGuest)
	c.StartWindow()
	a.Exec(CatKernel, sim.Microsecond, sim.Fn{})
	b.Exec(CatKernel, sim.Microsecond, sim.Fn{})
	eng.Run(sim.Millisecond)
	c.EndWindow()
	ka, _, _ := a.DomainTime()
	kb, _, _ := b.DomainTime()
	if ka != sim.Microsecond || kb != sim.Microsecond {
		t.Fatalf("penalty charged with unit=0: %v, %v", ka, kb)
	}
}
