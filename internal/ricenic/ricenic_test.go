package ricenic

import (
	"testing"
	"testing/quick"

	"cdna/internal/bus"
	"cdna/internal/core"
	"cdna/internal/ether"
	"cdna/internal/mem"
	"cdna/internal/ring"
	"cdna/internal/sim"
)

func TestMailboxHWDecodeOrder(t *testing.T) {
	var h MailboxHW
	if h.Pending() {
		t.Fatal("fresh hardware pending")
	}
	h.Write(5, 3, 100)
	h.Write(2, 0, 200)
	h.Write(2, 7, 300)
	if !h.Pending() {
		t.Fatal("events not pending")
	}
	// Decode walks contexts then mailboxes in ascending bit order.
	ctx, mbox, val, ok := h.DecodeNext()
	if !ok || ctx != 2 || mbox != 0 || val != 200 {
		t.Fatalf("decode 1: ctx=%d mbox=%d val=%d", ctx, mbox, val)
	}
	ctx, mbox, val, _ = h.DecodeNext()
	if ctx != 2 || mbox != 7 || val != 300 {
		t.Fatalf("decode 2: ctx=%d mbox=%d val=%d", ctx, mbox, val)
	}
	ctx, mbox, val, _ = h.DecodeNext()
	if ctx != 5 || mbox != 3 || val != 100 {
		t.Fatalf("decode 3: ctx=%d mbox=%d val=%d", ctx, mbox, val)
	}
	if _, _, _, ok := h.DecodeNext(); ok {
		t.Fatal("decode on empty hardware succeeded")
	}
}

func TestMailboxHWOverwrite(t *testing.T) {
	var h MailboxHW
	h.Write(1, MboxTxProd, 10)
	h.Write(1, MboxTxProd, 20) // producer index advanced again before service
	_, _, val, ok := h.DecodeNext()
	if !ok || val != 20 {
		t.Fatalf("val = %d, want latest write 20", val)
	}
	if h.Pending() {
		t.Fatal("coalesced mailbox writes must decode once")
	}
}

func TestMailboxHWClearContext(t *testing.T) {
	var h MailboxHW
	h.Write(3, 0, 1)
	h.Write(3, 5, 2)
	h.Write(9, 1, 3)
	h.ClearContext(3)
	ctx, _, _, ok := h.DecodeNext()
	if !ok || ctx != 9 {
		t.Fatalf("after clear: ctx=%d ok=%v", ctx, ok)
	}
}

func TestMailboxHWBoundsIgnored(t *testing.T) {
	var h MailboxHW
	h.Write(-1, 0, 1)
	h.Write(32, 0, 1)
	h.Write(0, -1, 1)
	h.Write(0, NumMailboxes, 1)
	if h.Pending() {
		t.Fatal("out-of-range writes must be ignored")
	}
	h.ClearContext(-1) // must not panic
	h.ClearContext(32)
}

// Property: every write is eventually decoded exactly once per
// (ctx, mbox) with the latest value.
func TestMailboxHWProperty(t *testing.T) {
	f := func(writes []uint16) bool {
		var h MailboxHW
		latest := map[[2]int]uint32{}
		for i, w := range writes {
			ctx := int(w) % 32
			mbox := int(w>>5) % NumMailboxes
			h.Write(ctx, mbox, uint32(i))
			latest[[2]int{ctx, mbox}] = uint32(i)
		}
		seen := map[[2]int]uint32{}
		for {
			ctx, mbox, val, ok := h.DecodeNext()
			if !ok {
				break
			}
			key := [2]int{ctx, mbox}
			if _, dup := seen[key]; dup {
				return false
			}
			seen[key] = val
		}
		if len(seen) != len(latest) {
			return false
		}
		for k, v := range latest {
			if seen[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// rig assembles a NIC with two contexts owned by two guests.
type rig struct {
	eng  *sim.Engine
	m    *mem.Memory
	n    *NIC
	cm   *core.ContextManager
	prot *core.Protection
	ctxA *core.Context
	ctxB *core.Context
	out  []*ether.Frame
}

const guestA, guestB = mem.Dom0 + 1, mem.Dom0 + 2

func newRig(t *testing.T, p Params) *rig {
	t.Helper()
	r := &rig{eng: sim.New(), m: mem.New()}
	b := bus.New(r.eng, bus.DefaultParams())
	pipe := ether.NewPipe(r.eng, 1.0, 0)
	pipe.Connect(ether.PortFunc(func(f *ether.Frame) { r.out = append(r.out, f) }))
	var err error
	r.n, err = New(r.eng, b, r.m, pipe, p)
	if err != nil {
		t.Fatal(err)
	}
	r.prot = core.NewProtection(r.m, core.ModeHypercall)
	r.cm = core.NewContextManager(r.prot)
	r.cm.OnRevoke = func(c *core.Context) { r.n.DetachContext(c.ID) }
	mk := func(dom mem.DomID, mac ether.MAC) *core.Context {
		tx, err := ring.New("tx", ring.DefaultLayout, r.m.AllocRun(dom, 1).Base(), 64)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := ring.New("rx", ring.DefaultLayout, r.m.AllocRun(dom, 1).Base(), 64)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := r.cm.Assign(dom, mac, tx, rx)
		if err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	r.ctxA = mk(guestA, ether.MakeMAC(1, 0))
	r.ctxB = mk(guestB, ether.MakeMAC(1, 1))
	return r
}

// enqueue pushes n tx descriptors through the protection engine and
// writes the mailbox.
func (r *rig) enqueue(t *testing.T, ctx *core.Context, dom mem.DomID, frames map[uint32]*ether.Frame, n int) {
	t.Helper()
	descs := make([]ring.Desc, n)
	base := ctx.TxRing.Prod()
	for i := range descs {
		buf := r.m.AllocRun(dom, 1)
		descs[i] = ring.Desc{Addr: buf.Base(), Len: 1514, Flags: ring.FlagTx}
		if frames != nil {
			frames[base+uint32(i)] = &ether.Frame{Src: ctx.MAC, Size: 1514}
		}
	}
	if _, err := r.prot.Enqueue(dom, ctx.TxRing, descs); err != nil {
		t.Fatal(err)
	}
	r.n.MailboxWrite(ctx.ID, MboxTxProd, ctx.TxRing.Prod())
}

func TestTxThroughMailboxAndSeqCheck(t *testing.T) {
	r := newRig(t, DefaultParams())
	frames := map[uint32]*ether.Frame{}
	r.n.AttachContext(r.ctxA, func(idx uint32) *ether.Frame { return frames[idx] })
	r.n.AttachContext(r.ctxB, nil)
	r.enqueue(t, r.ctxA, guestA, frames, 5)
	r.eng.Run(10 * sim.Millisecond)
	if len(r.out) != 5 {
		t.Fatalf("transmitted %d frames, want 5", len(r.out))
	}
	if r.n.E.Faults.Total() != 0 {
		t.Fatal("valid sequence numbers faulted")
	}
	if r.ctxA.TxRing.Cons() != 5 {
		t.Fatalf("consumer writeback = %d", r.ctxA.TxRing.Cons())
	}
}

func TestStaleProducerFaultsAndRevokes(t *testing.T) {
	r := newRig(t, DefaultParams())
	frames := map[uint32]*ether.Frame{}
	r.n.AttachContext(r.ctxA, func(idx uint32) *ether.Frame { return frames[idx] })
	var fault *core.Fault
	r.n.SetHost(nil, func(f *core.Fault) {
		fault = f
		r.cm.HandleFault(f)
	})
	r.enqueue(t, r.ctxA, guestA, frames, 3)
	r.eng.Run(5 * sim.Millisecond)
	// Forge the producer index past the valid descriptors: the stale
	// slot's sequence number cannot match.
	r.n.MailboxWrite(r.ctxA.ID, MboxTxProd, r.ctxA.TxRing.Prod()+2)
	r.eng.Run(10 * sim.Millisecond)
	if fault == nil {
		t.Fatal("stale producer went undetected")
	}
	if fault.ContextID != r.ctxA.ID || fault.Owner != guestA {
		t.Fatalf("fault misattributed: %+v", fault)
	}
	if !r.ctxA.Faulted {
		t.Fatal("context not revoked")
	}
	if r.cm.Assigned() != 1 {
		t.Fatalf("assigned contexts = %d, want 1 (victim unaffected)", r.cm.Assigned())
	}
	// The revoked context's mailbox writes are ignored.
	r.n.MailboxWrite(r.ctxA.ID, MboxTxProd, 99)
	r.eng.Run(12 * sim.Millisecond)
}

func TestRxDemuxByMAC(t *testing.T) {
	r := newRig(t, DefaultParams())
	r.n.AttachContext(r.ctxA, nil)
	r.n.AttachContext(r.ctxB, nil)
	// Post rx buffers for both contexts.
	for _, pair := range []struct {
		ctx *core.Context
		dom mem.DomID
	}{{r.ctxA, guestA}, {r.ctxB, guestB}} {
		descs := make([]ring.Desc, 8)
		for i := range descs {
			descs[i] = ring.Desc{Addr: r.m.AllocRun(pair.dom, 1).Base(), Len: 1600}
		}
		if _, err := r.prot.Enqueue(pair.dom, pair.ctx.RxRing, descs); err != nil {
			t.Fatal(err)
		}
		r.n.MailboxWrite(pair.ctx.ID, MboxRxProd, pair.ctx.RxRing.Prod())
	}
	r.eng.Run(5 * sim.Millisecond)
	r.n.Receive(&ether.Frame{Dst: r.ctxA.MAC, Size: 1514})
	r.n.Receive(&ether.Frame{Dst: r.ctxB.MAC, Size: 1514})
	r.n.Receive(&ether.Frame{Dst: r.ctxB.MAC, Size: 1514})
	r.n.Receive(&ether.Frame{Dst: ether.MakeMAC(9, 9), Size: 1514}) // nobody's
	r.eng.Run(10 * sim.Millisecond)
	if got := r.n.RxPending(r.ctxA.ID); got != 1 {
		t.Fatalf("ctxA completions = %d, want 1", got)
	}
	if got := r.n.RxPending(r.ctxB.ID); got != 2 {
		t.Fatalf("ctxB completions = %d, want 2", got)
	}
	if r.n.E.RxDrops.Total() != 1 {
		t.Fatalf("unmatched frame drops = %d, want 1", r.n.E.RxDrops.Total())
	}
	// DrainRx empties the completion queue.
	if got := len(r.n.DrainRx(r.ctxB.ID)); got != 2 {
		t.Fatalf("DrainRx = %d", got)
	}
	if r.n.RxPending(r.ctxB.ID) != 0 {
		t.Fatal("completions not drained")
	}
}

func TestPromiscuousContext(t *testing.T) {
	r := newRig(t, DefaultParams())
	r.n.AttachContext(r.ctxA, nil)
	descs := make([]ring.Desc, 4)
	for i := range descs {
		descs[i] = ring.Desc{Addr: r.m.AllocRun(guestA, 1).Base(), Len: 1600}
	}
	r.prot.Enqueue(guestA, r.ctxA.RxRing, descs)
	r.n.MailboxWrite(r.ctxA.ID, MboxRxProd, r.ctxA.RxRing.Prod())
	r.eng.Run(5 * sim.Millisecond)
	r.n.SetPromiscuous(r.ctxA.ID)
	r.n.Receive(&ether.Frame{Dst: ether.MakeMAC(7, 7), Size: 1514})
	r.eng.Run(10 * sim.Millisecond)
	if r.n.RxPending(r.ctxA.ID) != 1 {
		t.Fatal("promiscuous context did not receive the unmatched frame")
	}
}

func TestBitVectorInterruptDelivery(t *testing.T) {
	r := newRig(t, DefaultParams())
	frames := map[uint32]*ether.Frame{}
	r.n.AttachContext(r.ctxA, func(idx uint32) *ether.Frame { return frames[idx] })
	irqs := 0
	r.n.SetHost(func() { irqs++ }, nil)
	r.enqueue(t, r.ctxA, guestA, frames, 3)
	r.eng.Run(10 * sim.Millisecond)
	if irqs == 0 {
		t.Fatal("no physical interrupt raised")
	}
	bits, n := r.n.BitVec.Drain()
	if n == 0 || bits&(1<<uint(r.ctxA.ID)) == 0 {
		t.Fatalf("bit vector missing context bit: %#x (%d vectors)", bits, n)
	}
}

func TestDirectPerContextIRQAblation(t *testing.T) {
	p := DefaultParams()
	p.DirectPerContextIRQ = true
	p.CoalescePkts = 1000 // force timer-based fire so both contexts share a vector
	r := newRig(t, p)
	framesA := map[uint32]*ether.Frame{}
	framesB := map[uint32]*ether.Frame{}
	r.n.AttachContext(r.ctxA, func(idx uint32) *ether.Frame { return framesA[idx] })
	r.n.AttachContext(r.ctxB, func(idx uint32) *ether.Frame { return framesB[idx] })
	irqs := 0
	r.n.SetHost(func() { irqs++ }, nil)
	r.enqueue(t, r.ctxA, guestA, framesA, 2)
	r.enqueue(t, r.ctxB, guestB, framesB, 2)
	r.eng.Run(5 * sim.Millisecond)
	if irqs < 2 {
		t.Fatalf("direct mode raised %d interrupts, want one per context (>=2)", irqs)
	}
}

func TestSeqCheckDisabled(t *testing.T) {
	p := DefaultParams()
	p.SeqCheck = false
	r := newRig(t, p)
	r.n.AttachContext(r.ctxA, nil)
	// Forged producer: without sequence checking nothing faults and the
	// NIC transmits garbage from the stale slots.
	r.n.MailboxWrite(r.ctxA.ID, MboxTxProd, 2)
	r.eng.Run(10 * sim.Millisecond)
	if r.n.E.Faults.Total() != 0 {
		t.Fatal("faults with checking disabled")
	}
	if len(r.out) != 2 {
		t.Fatalf("transmitted %d garbage frames, want 2", len(r.out))
	}
}

func TestDetachContext(t *testing.T) {
	r := newRig(t, DefaultParams())
	r.n.AttachContext(r.ctxA, nil)
	r.n.DetachContext(r.ctxA.ID)
	r.n.Receive(&ether.Frame{Dst: r.ctxA.MAC, Size: 100})
	r.eng.Run(sim.Millisecond)
	if r.n.E.RxDrops.Total() != 1 {
		t.Fatal("detached context should drop frames")
	}
	if r.n.DrainRx(r.ctxA.ID) != nil {
		t.Fatal("detached context retains completions")
	}
}

func TestConstantsMatchPaper(t *testing.T) {
	if NumMailboxes != 24 {
		t.Fatal("the paper specifies 24 mailboxes per context")
	}
}
