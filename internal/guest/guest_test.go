package guest

import (
	"math"
	"testing"

	"cdna/internal/bus"
	"cdna/internal/core"
	"cdna/internal/cpu"
	"cdna/internal/ether"
	"cdna/internal/intelnic"
	"cdna/internal/mem"
	"cdna/internal/ricenic"
	"cdna/internal/ring"
	"cdna/internal/sim"
	"cdna/internal/transport"
	"cdna/internal/xen"
)

func testDriverCosts() DriverCosts {
	us := sim.Microsecond
	return DriverCosts{TxPerPkt: us, RxPerPkt: us, BatchFixed: us, IrqFixed: us, PIO: us / 2}
}

func testStackCosts() StackCosts {
	us := sim.Microsecond
	return StackCosts{TxData: us, RxData: us, TxAck: us / 2, RxAck: us / 2, UserPerData: us / 10, UserBatch: 4}
}

// --- Stack ---

func TestStackSenderChargesAndTransmits(t *testing.T) {
	eng := sim.New()
	c := cpu.New(eng, cpu.Params{SwitchCost: 0, Slice: sim.Millisecond})
	dom := c.NewDomain("g", cpu.KindGuest)
	st := NewStack(dom, testStackCosts())
	dev := &fakeDev{mac: ether.MakeMAC(1, 1)}
	st.AttachDevice(dev)
	send := st.Sender(dev, ether.MakeMAC(2, 2))
	c.StartWindow()
	conn := transport.NewConn(eng, 0, transport.DefaultSegSize, 4)
	conn.AttachSender(send)
	conn.Start()
	eng.Run(2 * sim.Millisecond) // below the RTO: only the initial burst
	c.EndWindow()
	if len(dev.sent) != transport.InitialCwnd {
		t.Fatalf("transmitted %d frames", len(dev.sent))
	}
	f := dev.sent[0]
	if f.Src != dev.mac || f.Dst != (ether.MakeMAC(2, 2)) || f.Size != 1514 {
		t.Fatalf("frame: %+v", f)
	}
	k, u, _ := dom.DomainTime()
	if k == 0 {
		t.Fatal("no kernel time charged")
	}
	if u == 0 {
		t.Fatal("no user time charged (batched copy)")
	}
}

func TestStackDeliverDispatches(t *testing.T) {
	eng := sim.New()
	c := cpu.New(eng, cpu.Params{SwitchCost: 0, Slice: sim.Millisecond})
	dom := c.NewDomain("g", cpu.KindGuest)
	st := NewStack(dom, testStackCosts())
	dev := &fakeDev{mac: ether.MakeMAC(1, 1)}
	st.AttachDevice(dev)
	conn := transport.NewConn(eng, 0, transport.DefaultSegSize, 4)
	acked := false
	conn.AttachReceiver(func(s *transport.Segment) { acked = true })
	seg := &transport.Segment{Conn: conn, Seq: 0, Len: transport.DefaultSegSize}
	dev.rx(&ether.Frame{Dst: dev.mac, Size: 1514, Payload: seg})
	seg2 := &transport.Segment{Conn: conn, Seq: 1, Len: transport.DefaultSegSize}
	dev.rx(&ether.Frame{Dst: dev.mac, Size: 1514, Payload: seg2})
	// A frame addressed to some other station must be filtered at the
	// device boundary, not dispatched to the conn.
	dev.rx(&ether.Frame{Dst: ether.MakeMAC(9, 9), Size: 1514,
		Payload: &transport.Segment{Conn: conn, Seq: 2, Len: transport.DefaultSegSize}})
	eng.Run(10 * sim.Millisecond)
	if conn.Delivered.Total() != 2*transport.DefaultSegSize {
		t.Fatalf("delivered = %d", conn.Delivered.Total())
	}
	if !acked {
		t.Fatal("delayed ack not emitted after 2 segments")
	}
	if st.Delivered.Total() != 2 {
		t.Fatalf("stack delivered counter = %d", st.Delivered.Total())
	}
	if st.Foreign.Total() != 1 {
		t.Fatalf("foreign counter = %d, want 1", st.Foreign.Total())
	}
}

func TestStackDropsOpaqueFrames(t *testing.T) {
	eng := sim.New()
	c := cpu.New(eng, cpu.Params{Slice: sim.Millisecond})
	dom := c.NewDomain("g", cpu.KindGuest)
	st := NewStack(dom, testStackCosts())
	dev := &fakeDev{}
	st.AttachDevice(dev)
	dev.rx(&ether.Frame{Size: 777}) // garbage frame, no Segment payload
	eng.Run(sim.Millisecond)
	if st.Delivered.Total() != 0 {
		t.Fatal("opaque frame delivered")
	}
}

func TestScaleCost(t *testing.T) {
	if ScaleCost(1000, 1514) != 1000 {
		t.Fatal("data frames pay full cost")
	}
	if ScaleCost(1000, 66) != 500 {
		t.Fatal("ack frames pay half cost")
	}
}

type fakeDev struct {
	mac  ether.MAC
	sent []*ether.Frame
	rx   func(*ether.Frame)
}

func (d *fakeDev) MAC() ether.MAC                    { return d.mac }
func (d *fakeDev) StartXmit(f *ether.Frame)          { d.sent = append(d.sent, f) }
func (d *fakeDev) SetRxHandler(h func(*ether.Frame)) { d.rx = h }

// --- NativeDriver ---

type nativeRig struct {
	eng *sim.Engine
	c   *cpu.CPU
	m   *mem.Memory
	dom *cpu.Domain
	nic *intelnic.NIC
	drv *NativeDriver
	out []*ether.Frame
}

func newNativeRig(t *testing.T) *nativeRig {
	t.Helper()
	r := &nativeRig{eng: sim.New(), m: mem.New()}
	r.c = cpu.New(r.eng, cpu.Params{SwitchCost: 500, Slice: sim.Millisecond})
	r.dom = r.c.NewDomain("host", cpu.KindGuest)
	b := bus.New(r.eng, bus.DefaultParams())
	pipe := ether.NewPipe(r.eng, 1.0, 0)
	pipe.Connect(ether.PortFunc(func(f *ether.Frame) { r.out = append(r.out, f) }))
	r.nic = intelnic.New(r.eng, b, r.m, pipe, intelnic.DefaultParams(), ether.MakeMAC(1, 0))
	var err error
	r.drv, err = NewNativeDriver(r.dom, mem.Dom0+1, r.m, r.nic, testDriverCosts())
	if err != nil {
		t.Fatal(err)
	}
	r.nic.SetIRQ(r.drv.OnInterrupt)
	r.drv.Start()
	return r
}

func TestNativeDriverTransmit(t *testing.T) {
	r := newNativeRig(t)
	for i := 0; i < 20; i++ {
		r.drv.StartXmit(&ether.Frame{Size: 1514, Src: r.drv.MAC()})
	}
	r.eng.Run(20 * sim.Millisecond)
	if len(r.out) != 20 {
		t.Fatalf("transmitted %d, want 20", len(r.out))
	}
	if r.drv.TxDropped.Total() != 0 {
		t.Fatalf("dropped %d", r.drv.TxDropped.Total())
	}
}

func TestNativeDriverReceiveAndReplenish(t *testing.T) {
	r := newNativeRig(t)
	var got []*ether.Frame
	r.drv.SetRxHandler(func(f *ether.Frame) { got = append(got, f) })
	r.eng.Run(5 * sim.Millisecond) // initial rx posting
	posted := r.drv.rx.Prod()
	for i := 0; i < 10; i++ {
		r.nic.Receive(&ether.Frame{Size: 1514})
	}
	r.eng.Run(20 * sim.Millisecond)
	if len(got) != 10 {
		t.Fatalf("received %d, want 10", len(got))
	}
	if r.drv.rx.Prod() != posted+10 {
		t.Fatalf("replenish: prod %d, want %d", r.drv.rx.Prod(), posted+10)
	}
}

func TestNativeDriverBacklogDrainsNotDrops(t *testing.T) {
	r := newNativeRig(t)
	// Far more frames than the tx ring holds: the qdisc backlog must
	// absorb them and drain via completions.
	const n = RingEntries + 500
	for i := 0; i < n; i++ {
		r.drv.StartXmit(&ether.Frame{Size: 1514})
	}
	r.eng.Run(sim.Second)
	if r.drv.TxDropped.Total() != 0 {
		t.Fatalf("qdisc dropped %d", r.drv.TxDropped.Total())
	}
	if len(r.out) != n {
		t.Fatalf("transmitted %d, want %d", len(r.out), n)
	}
}

func TestNativeDriverPoolRecycling(t *testing.T) {
	r := newNativeRig(t)
	// Push several pools' worth of packets through: buffers must recycle.
	const n = 3 * PoolPages
	for i := 0; i < n; i++ {
		r.drv.StartXmit(&ether.Frame{Size: 1514})
	}
	r.eng.Run(2 * sim.Second)
	if len(r.out) != n {
		t.Fatalf("transmitted %d, want %d (pool starved?)", len(r.out), n)
	}
}

// TestNativeDriverStateListsLiveSlots checks the driver's per-slot
// tables after its free-running ring indices have wrapped them: exactly
// the live descriptors, from the last reaped index up to the producer,
// hold a buffer (and, on transmit, an in-flight frame); every other
// slot is empty.
func TestNativeDriverStateListsLiveSlots(t *testing.T) {
	r := newNativeRig(t)
	for i := 0; i < RingEntries+500; i++ {
		r.drv.StartXmit(&ether.Frame{Size: 1514})
	}
	for i := 0; i < 10; i++ {
		r.nic.Receive(&ether.Frame{Size: 1514})
	}
	d := r.drv
	for d.lastTxCons <= RingEntries+10 || d.tx.Prod()-d.lastTxCons < 10 {
		if r.eng.Now() > sim.Second {
			t.Fatal("transmit drained before the tx slots wrapped")
		}
		r.eng.Run(r.eng.Now() + 10*sim.Microsecond)
	}
	live := func(name string, pool *bufPool, frames *[RingEntries]*ether.Frame, from, to uint32) {
		t.Helper()
		if to-from > RingEntries {
			t.Fatalf("%s: live window %d..%d exceeds the ring", name, from, to)
		}
		in := make(map[uint32]bool, to-from)
		for i := from; i != to; i++ {
			in[slot(i)] = true
		}
		for s := uint32(0); s < RingEntries; s++ {
			hasFrame := frames != nil && frames[s] != nil
			pfn := pool.held(s)
			if in[s] && (pfn == 0 || frames != nil && !hasFrame) {
				t.Fatalf("%s: live slot %d is empty (pfn %d, frame %v)", name, s, pfn, hasFrame)
			}
			if !in[s] && (pfn != 0 || hasFrame) {
				t.Fatalf("%s: slot %d outside indices %d..%d holds pfn %d, frame %v", name, s, from, to, pfn, hasFrame)
			}
		}
		if held := (to - from) + uint32(pool.Len()); held != PoolPages {
			t.Fatalf("%s: %d pages held or free, want the pool's %d", name, held, PoolPages)
		}
	}
	live("tx", &d.txPool, &d.inflight, d.lastTxCons, d.tx.Prod())
	live("rx", &d.rxPool, nil, d.lastRxCons, d.rx.Prod())
}

// --- CDNADriver ---

type cdnaRig struct {
	eng  *sim.Engine
	hyp  *xen.Hypervisor
	gdom *xen.Domain
	nic  *ricenic.NIC
	cm   *core.ContextManager
	drv  *CDNADriver
	out  []*ether.Frame
}

func newCDNARig(t *testing.T, protMode core.Mode) *cdnaRig {
	t.Helper()
	r := &cdnaRig{eng: sim.New()}
	m := mem.New()
	c := cpu.New(r.eng, cpu.Params{SwitchCost: 500, Slice: sim.Millisecond})
	r.hyp = xen.New(r.eng, c, m, xen.DefaultParams(), protMode)
	r.hyp.NewDomain("dom0", cpu.KindDriver)
	r.gdom = r.hyp.NewDomain("guest", cpu.KindGuest)
	b := bus.New(r.eng, bus.DefaultParams())
	pipe := ether.NewPipe(r.eng, 1.0, 0)
	pipe.Connect(ether.PortFunc(func(f *ether.Frame) { r.out = append(r.out, f) }))
	params := ricenic.DefaultParams()
	params.SeqCheck = protMode == core.ModeHypercall
	var err error
	r.nic, err = ricenic.New(r.eng, b, m, pipe, params)
	if err != nil {
		t.Fatal(err)
	}
	r.cm = core.NewContextManager(r.hyp.Prot)
	r.cm.OnRevoke = func(ctx *core.Context) { r.nic.DetachContext(ctx.ID) }
	txr, err := testRing(m, r.gdom.ID)
	if err != nil {
		t.Fatal(err)
	}
	rxr, err := testRing(m, r.gdom.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := r.cm.Assign(r.gdom.ID, ether.MakeMAC(1, 0), txr, rxr)
	if err != nil {
		t.Fatal(err)
	}
	direct := protMode != core.ModeHypercall
	r.drv = NewCDNADriver(r.gdom, m, r.nic, ctx, testDriverCosts(), r.hyp.Prot, direct, 100)
	channels := make([]*xen.EventChannel, core.NumContexts)
	channels[ctx.ID] = r.hyp.NewChannel(r.gdom, "cdna", r.drv.OnVirq)
	dec := r.hyp.NewBitVecDecoder(r.nic.BitVec, channels)
	irq := r.hyp.NewIRQ("rice", dec.HandleIRQ)
	r.nic.SetHost(irq.Raise, func(f *core.Fault) { r.hyp.HandleFault(r.cm, f) })
	r.drv.Start()
	return r
}

func TestCDNADriverTransmit(t *testing.T) {
	r := newCDNARig(t, core.ModeHypercall)
	for i := 0; i < 25; i++ {
		r.drv.StartXmit(&ether.Frame{Size: 1514, Src: r.drv.MAC()})
	}
	r.eng.Run(50 * sim.Millisecond)
	if len(r.out) != 25 {
		t.Fatalf("transmitted %d, want 25", len(r.out))
	}
	if r.drv.EnqueueErrs.Total() != 0 || r.drv.TxDropped.Total() != 0 {
		t.Fatalf("errs=%d drops=%d", r.drv.EnqueueErrs.Total(), r.drv.TxDropped.Total())
	}
	if r.hyp.Prot.Validated.Total() == 0 {
		t.Fatal("no descriptors went through protection")
	}
}

func TestCDNADriverReceive(t *testing.T) {
	r := newCDNARig(t, core.ModeHypercall)
	var got []*ether.Frame
	r.drv.SetRxHandler(func(f *ether.Frame) { got = append(got, f) })
	r.eng.Run(10 * sim.Millisecond) // initial rx posting
	for i := 0; i < 9; i++ {
		r.nic.Receive(&ether.Frame{Dst: r.drv.MAC(), Size: 1514})
	}
	r.eng.Run(60 * sim.Millisecond)
	if len(got) != 9 {
		t.Fatalf("received %d, want 9", len(got))
	}
	if r.gdom.Virqs.Total() == 0 {
		t.Fatal("no virtual interrupts delivered")
	}
}

func TestCDNADriverBufferRecycling(t *testing.T) {
	r := newCDNARig(t, core.ModeHypercall)
	const n = 2*PoolPages + 100
	for i := 0; i < n; i++ {
		r.drv.StartXmit(&ether.Frame{Size: 1514})
	}
	r.eng.Run(3 * sim.Second)
	if len(r.out) != n {
		t.Fatalf("transmitted %d, want %d", len(r.out), n)
	}
	if r.drv.TxDropped.Total() != 0 {
		t.Fatalf("dropped %d", r.drv.TxDropped.Total())
	}
}

func TestCDNADriverMaxBatch(t *testing.T) {
	r := newCDNARig(t, core.ModeHypercall)
	r.drv.MaxBatch = 2
	for i := 0; i < 10; i++ {
		r.drv.StartXmit(&ether.Frame{Size: 1514})
	}
	r.eng.Run(50 * sim.Millisecond)
	if len(r.out) != 10 {
		t.Fatalf("transmitted %d, want 10", len(r.out))
	}
}

func TestCDNADriverDirectMode(t *testing.T) {
	r := newCDNARig(t, core.ModeOff)
	for i := 0; i < 10; i++ {
		r.drv.StartXmit(&ether.Frame{Size: 1514})
	}
	r.eng.Run(50 * sim.Millisecond)
	if len(r.out) != 10 {
		t.Fatalf("direct mode transmitted %d, want 10", len(r.out))
	}
	if r.hyp.Prot.Validated.Total() != 0 {
		t.Fatal("direct mode must not invoke protection validation")
	}
}

func TestCDNADriverForeignAttackRejected(t *testing.T) {
	r := newCDNARig(t, core.ModeHypercall)
	victim := r.hyp.NewDomain("victim", cpu.KindGuest)
	page := r.hyp.Mem.AllocRun(victim.ID, 1)
	var got error
	r.drv.AttackForeignEnqueue(page.Base(), func(err error) { got = err })
	r.eng.Run(10 * sim.Millisecond)
	if got != core.ErrForeignMemory {
		t.Fatalf("err = %v, want ErrForeignMemory", got)
	}
}

// TestCDNADriverWrappingAttackRejected: a descriptor whose range wraps
// past the top of the address space is charged a positive hypercall
// cost and refused as foreign memory, not pinned as an empty span.
func TestCDNADriverWrappingAttackRejected(t *testing.T) {
	r := newCDNARig(t, core.ModeHypercall)
	r.eng.Run(10 * sim.Millisecond)
	pinned := r.hyp.Prot.PinnedPages.Total()
	var got error
	r.drv.AttackForeignEnqueue(mem.Addr(math.MaxUint64-99), func(err error) { got = err })
	r.eng.Run(20 * sim.Millisecond)
	if got != core.ErrForeignMemory {
		t.Fatalf("err = %v, want ErrForeignMemory", got)
	}
	if n := r.hyp.Prot.PinnedPages.Total(); n != pinned {
		t.Fatalf("wrapping descriptor pinned %d pages", n-pinned)
	}
}

// TestCDNADriverStartImageNotPooled: Start posts a whole ring of rx
// buffers in one batch; its descriptor image is dropped afterwards
// rather than kept in the pool for the driver's life.
func TestCDNADriverStartImageNotPooled(t *testing.T) {
	r := newCDNARig(t, core.ModeHypercall)
	r.eng.Run(10 * sim.Millisecond)
	if got := r.drv.Ctx.RxRing.Avail(); got != RingEntries-1 {
		t.Fatalf("start-up post left %d rx descriptors, want %d", got, RingEntries-1)
	}
	for _, b := range r.drv.descFree {
		if cap(b) >= RingEntries-1 {
			t.Fatalf("start-up descriptor image (cap %d) was pooled", cap(b))
		}
	}
}

func TestCDNADriverStaleAttackRevoked(t *testing.T) {
	r := newCDNARig(t, core.ModeHypercall)
	for i := 0; i < 5; i++ {
		r.drv.StartXmit(&ether.Frame{Size: 1514})
	}
	r.eng.Run(20 * sim.Millisecond)
	r.drv.AttackStaleProducer(3)
	r.eng.Run(60 * sim.Millisecond)
	if !r.drv.Ctx.Faulted {
		t.Fatal("stale attack not detected")
	}
	if r.cm.Assigned() != 0 {
		t.Fatal("context not revoked")
	}
	// Subsequent enqueues fail cleanly.
	r.drv.StartXmit(&ether.Frame{Size: 1514})
	r.eng.Run(80 * sim.Millisecond)
	if r.drv.EnqueueErrs.Total() == 0 {
		t.Fatal("post-revocation enqueue should error")
	}
}

// testRing allocates a RingEntries-slot descriptor ring in dom's memory.
func testRing(m *mem.Memory, dom mem.DomID) (*ring.Ring, error) {
	pages := (RingEntries*ring.DefaultLayout.Size + mem.PageSize - 1) / mem.PageSize
	return ring.New("t", ring.DefaultLayout, m.Alloc(dom, pages)[0].Base(), RingEntries)
}
