package xen

import (
	"testing"

	"cdna/internal/core"
	"cdna/internal/cpu"
	"cdna/internal/ether"
	"cdna/internal/mem"
	"cdna/internal/ring"
	"cdna/internal/sim"
)

func newHyp(t *testing.T) (*sim.Engine, *Hypervisor) {
	t.Helper()
	eng := sim.New()
	c := cpu.New(eng, cpu.DefaultParams())
	m := mem.New()
	return eng, New(eng, c, m, DefaultParams(), core.ModeHypercall)
}

func TestDomainIDs(t *testing.T) {
	_, h := newHyp(t)
	d0 := h.NewDomain("driver", cpu.KindDriver)
	g1 := h.NewDomain("guest1", cpu.KindGuest)
	g2 := h.NewDomain("guest2", cpu.KindGuest)
	if d0.ID != mem.Dom0 || g1.ID != mem.Dom0+1 || g2.ID != mem.Dom0+2 {
		t.Fatalf("IDs: %d %d %d", d0.ID, g1.ID, g2.ID)
	}
	if len(h.Domains()) != 3 {
		t.Fatalf("Domains = %d", len(h.Domains()))
	}
}

func TestHypercallChargedToHypervisor(t *testing.T) {
	eng, h := newHyp(t)
	g := h.NewDomain("g", cpu.KindGuest)
	h.CPU.StartWindow()
	ran := false
	g.Hypercall(sim.Microsecond, sim.RawFn(func() { ran = true }))
	eng.Run(sim.Millisecond)
	h.CPU.EndWindow()
	if !ran {
		t.Fatal("hypercall did not run")
	}
	p := h.CPU.Profile()
	if p.GuestOS != 0 {
		t.Fatalf("hypercall charged to guest kernel: %+v", p)
	}
	if p.Hyp == 0 {
		t.Fatal("no hypervisor time recorded")
	}
}

func TestEventChannelDeliversAndMerges(t *testing.T) {
	eng, h := newHyp(t)
	g := h.NewDomain("g", cpu.KindGuest)
	count := 0
	ch := h.NewChannel(g, "net", func() { count++ })
	// Three notifies before the domain runs: merged into one delivery.
	ch.Notify()
	ch.Notify()
	ch.Notify()
	eng.Run(sim.Millisecond)
	if count != 1 {
		t.Fatalf("handler ran %d times, want 1 (merged)", count)
	}
	if ch.Merged.Total() != 2 {
		t.Fatalf("Merged = %d", ch.Merged.Total())
	}
	if g.Virqs.Total() != 1 {
		t.Fatalf("Virqs = %d", g.Virqs.Total())
	}
	// After delivery, a new notify is a fresh virtual interrupt.
	ch.Notify()
	eng.Run(2 * sim.Millisecond)
	if count != 2 || g.Virqs.Total() != 2 {
		t.Fatalf("count=%d virqs=%d", count, g.Virqs.Total())
	}
}

func TestNotifyFromGuestChargesSender(t *testing.T) {
	eng, h := newHyp(t)
	g := h.NewDomain("sender", cpu.KindGuest)
	d0 := h.NewDomain("driver", cpu.KindDriver)
	ch := h.NewChannel(d0, "back", func() {})
	h.CPU.StartWindow()
	g.VCPU.Exec(cpu.CatKernel, sim.Microsecond, sim.RawFn(func() {
		ch.NotifyFromGuest(g)
	}))
	eng.Run(sim.Millisecond)
	h.CPU.EndWindow()
	p := h.CPU.Profile()
	if p.Hyp == 0 {
		t.Fatal("evtchn send cost not charged to hypervisor")
	}
	if p.DriverOS == 0 {
		t.Fatal("virq dispatch cost not charged to target kernel")
	}
}

func TestIRQRouting(t *testing.T) {
	eng, h := newHyp(t)
	fired := 0
	irq := h.NewIRQ("nic0", func() { fired++ })
	irq.Raise()
	irq.Raise()
	eng.Run(sim.Millisecond)
	if fired != 2 || h.PhysIRQs.Total() != 2 {
		t.Fatalf("fired=%d counted=%d", fired, h.PhysIRQs.Total())
	}
}

func TestTimersTick(t *testing.T) {
	eng, h := newHyp(t)
	g := h.NewDomain("g", cpu.KindGuest)
	h.StartTimers()
	h.CPU.StartWindow()
	eng.Run(105 * sim.Millisecond)
	h.CPU.EndWindow()
	k, _, _ := g.VCPU.DomainTime()
	// 10 ticks at 2us each = 20us, plus one cold-cache refill (the
	// domain's first-ever dispatch charges CacheRefillCap).
	want := 20*sim.Microsecond + cpu.DefaultParams().CacheRefillCap
	if k < want-2*sim.Microsecond || k > want+2*sim.Microsecond {
		t.Fatalf("tick kernel time = %v, want ~%v", k, want)
	}
}

func TestCDNAEnqueueHypercall(t *testing.T) {
	eng, h := newHyp(t)
	g := h.NewDomain("g", cpu.KindGuest)
	base := h.Mem.AllocOne(g.ID).Base()
	r, _ := ring.New("tx", ring.DefaultLayout, base, 64)
	if err := h.Prot.RegisterRing(g.ID, r, 128); err != nil {
		t.Fatal(err)
	}
	buf := h.Mem.AllocOne(g.ID)
	descs := []ring.Desc{{Addr: buf.Base(), Len: 1514}}
	var gotN int
	var gotErr error
	g.Hypercall(g.CDNAEnqueueCost(descs), sim.RawFn(func() {
		gotN, gotErr = g.CDNAValidate(r, descs)
	}))
	eng.Run(sim.Millisecond)
	if gotErr != nil || gotN != 1 {
		t.Fatalf("enqueue = %d, %v", gotN, gotErr)
	}
	if r.Avail() != 1 {
		t.Fatal("descriptor not on ring")
	}
}

func TestCDNAEnqueueRejectsForeign(t *testing.T) {
	eng, h := newHyp(t)
	g := h.NewDomain("g", cpu.KindGuest)
	victim := h.NewDomain("victim", cpu.KindGuest)
	base := h.Mem.AllocOne(g.ID).Base()
	r, _ := ring.New("tx", ring.DefaultLayout, base, 64)
	h.Prot.RegisterRing(g.ID, r, 128)
	buf := h.Mem.AllocOne(victim.ID)
	descs := []ring.Desc{{Addr: buf.Base(), Len: 1514}}
	var gotErr error
	g.Hypercall(g.CDNAEnqueueCost(descs), sim.RawFn(func() {
		_, gotErr = g.CDNAValidate(r, descs)
	}))
	eng.Run(sim.Millisecond)
	if gotErr != core.ErrForeignMemory {
		t.Fatalf("err = %v, want ErrForeignMemory", gotErr)
	}
}

func TestHandleBitVectorIRQ(t *testing.T) {
	eng, h := newHyp(t)
	g1 := h.NewDomain("g1", cpu.KindGuest)
	g2 := h.NewDomain("g2", cpu.KindGuest)
	bvBase := h.Mem.AllocOne(mem.DomHyp).Base()
	q, err := core.NewBitVectorQueue(h.Mem, bvBase, 16)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	channels := make([]*EventChannel, core.NumContexts)
	channels[3] = h.NewChannel(g1, "ctx3", func() { got[3]++ })
	channels[7] = h.NewChannel(g2, "ctx7", func() { got[7]++ })
	q.Accumulate(3)
	q.Accumulate(7)
	q.Post()
	dec := h.NewBitVecDecoder(q, channels)
	irq := h.NewIRQ("cdna", dec.HandleIRQ)
	irq.Raise()
	eng.Run(sim.Millisecond)
	if got[3] != 1 || got[7] != 1 {
		t.Fatalf("deliveries: %v", got)
	}
	if g1.Virqs.Total() != 1 || g2.Virqs.Total() != 1 {
		t.Fatal("virq counters wrong")
	}
}

func TestHandleFaultRevokesContext(t *testing.T) {
	eng, h := newHyp(t)
	g := h.NewDomain("g", cpu.KindGuest)
	tx, _ := ring.New("tx", ring.DefaultLayout, h.Mem.AllocOne(g.ID).Base(), 64)
	rx, _ := ring.New("rx", ring.DefaultLayout, h.Mem.AllocOne(g.ID).Base(), 64)
	ctx, err := h.CtxMgr.Assign(g.ID, ether.MakeMAC(1, 1), tx, rx)
	if err != nil {
		t.Fatal(err)
	}
	h.HandleFault(nil, &core.Fault{ContextID: ctx.ID, Owner: g.ID, Reason: core.FaultSeqMismatch})
	eng.Run(sim.Millisecond)
	if !ctx.Faulted || h.CtxMgr.Assigned() != 0 {
		t.Fatal("fault did not revoke context")
	}
	if h.Faults.Total() != 1 {
		t.Fatalf("Faults = %d", h.Faults.Total())
	}
}
