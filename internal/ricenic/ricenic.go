package ricenic

import (
	"cdna/internal/bus"
	"cdna/internal/core"
	"cdna/internal/ether"
	"cdna/internal/mem"
	"cdna/internal/nic"
	"cdna/internal/ring"
	"cdna/internal/sim"
)

// Params configures the device.
type Params struct {
	Engine          nic.Params
	MboxDecode      sim.Time // firmware cost to service one mailbox event
	CoalesceDelay   sim.Time // interrupt coalescing timer, transmit completions
	RxCoalesceDelay sim.Time // interrupt coalescing timer, receive completions
	CoalescePkts    int      // transmit-completion threshold
	RxCoalescePkts  int      // receive-completion threshold
	BitVecEntries   int
	// SeqCheck enables descriptor sequence validation (§3.3). Disabled
	// only for the protection-off configuration of Table 4.
	SeqCheck bool
	// DirectPerContextIRQ is the §3.2 ablation: instead of one physical
	// interrupt per posted bit vector, the NIC raises one per context
	// with updates, modeling hardware that interrupts guests directly.
	DirectPerContextIRQ bool
}

// DefaultParams models the RiceNIC firmware on one 300 MHz PowerPC: it
// comfortably saturates the Gigabit link, as the paper reports.
func DefaultParams() Params {
	return Params{
		Engine: nic.Params{
			ProcTx:     1500 * sim.Nanosecond,
			ProcRx:     1700 * sim.Nanosecond,
			FetchBatch: 16,
			RxPrefetch: 64,
			TxWindow:   3,
			RxBufBytes: 128 << 10,
		},
		MboxDecode:      800 * sim.Nanosecond,
		CoalesceDelay:   70 * sim.Microsecond,
		RxCoalesceDelay: 140 * sim.Microsecond,
		CoalescePkts:    32,
		BitVecEntries:   64,
		SeqCheck:        true,
	}
}

// RxCompletion is a received-frame record the guest driver reads at its
// next virtual interrupt.
type RxCompletion struct {
	Frame *ether.Frame
	Desc  ring.Desc
}

type devContext struct {
	ctx    *core.Context
	qid    int
	lookup func(idx uint32) *ether.Frame
	// rxDone accumulates receive completions between guest virtual
	// interrupts; DrainRx hands the burst across the device/driver
	// boundary in one swap (sim.DoubleBuf's batched layer crossing).
	rxDone sim.DoubleBuf[RxCompletion]
}

// NIC is the CDNA-capable device.
type NIC struct {
	Name   string
	Params Params
	E      *nic.Engine
	Coal   *nic.Coalescer // transmit-completion coalescer
	RxCoal *nic.Coalescer // receive-completion coalescer
	Mbox   MailboxHW
	BitVec *core.BitVectorQueue

	eng *sim.Engine
	bus *bus.Bus

	raiseIRQ func()
	onFault  func(*core.Fault)

	// Dense per-packet lookup tables: context IDs and engine qids are
	// small sequential integers, so these are nil-holed slices rather
	// than maps — an array index per packet instead of a hash probe,
	// with inherently deterministic iteration. MAC demux scans attached
	// contexts linearly (at most 32, typically a handful).
	contexts   []*devContext // indexed by context ID
	byQueue    []*devContext // indexed by engine qid
	attached   []*devContext // MAC demux scan list (attach order)
	decoding   bool
	promiscCtx int // context receiving unmatched frames (-1 = drop)

	// Posted-but-not-yet-DMAed interrupt bit vectors, consumed FIFO by
	// bitvecDoneFn; with decodeDoneFn these are the firmware's
	// per-interrupt/per-mailbox callbacks bound once at New.
	postedVecs   sim.FIFO[uint32]
	bitvecDoneFn sim.Fn
	decodeDoneFn sim.Fn
}

// SetPromiscuous routes frames whose destination MAC matches no context
// to the given context — how the driver domain uses a single RiceNIC
// context to bridge all guest traffic in the software-virtualization
// configuration (Xen/RiceNIC rows of Tables 2-3).
func (n *NIC) SetPromiscuous(ctxID int) { n.promiscCtx = ctxID }

// New creates the NIC. The interrupt bit-vector queue lives in
// hypervisor memory and is allocated here (the hypervisor tells the NIC
// where during initialization).
func New(eng *sim.Engine, b *bus.Bus, m *mem.Memory, out *ether.Pipe, p Params) (*NIC, error) {
	n := &NIC{
		Name: "ricenic", Params: p, eng: eng, bus: b,
		contexts:   make([]*devContext, core.NumContexts),
		promiscCtx: -1,
	}
	bvPages := (core.BitVectorBytes(p.BitVecEntries) + mem.PageSize - 1) / mem.PageSize
	base := m.AllocRun(mem.DomHyp, bvPages).Base()
	bv, err := core.NewBitVectorQueue(m, base, p.BitVecEntries)
	if err != nil {
		return nil, err
	}
	n.BitVec = bv
	n.bitvecDoneFn = eng.Bind("bus.dma:ricenic.bitvec", n.bitvecDone)
	n.decodeDoneFn = eng.Bind("nicproc:mboxdecode", n.decodeDone)
	n.E = nic.NewEngine(eng, b, m, out, p.Engine)
	n.Coal = nic.NewCoalescer(eng, p.CoalesceDelay, p.CoalescePkts, n.fireInterrupt)
	rxDelay := p.RxCoalesceDelay
	if rxDelay == 0 {
		rxDelay = p.CoalesceDelay
	}
	rxPkts := p.RxCoalescePkts
	if rxPkts == 0 {
		rxPkts = p.CoalescePkts
	}
	n.RxCoal = nic.NewCoalescer(eng, rxDelay, rxPkts, n.fireInterrupt)
	n.E.Hooks = nic.Hooks{
		CheckTxSeq: n.checkSeq(true),
		CheckRxSeq: n.checkSeq(false),
		OnFault:    n.engineFault,
		LookupTx: func(qid int, idx uint32) *ether.Frame {
			if dc := n.queueCtx(qid); dc != nil && dc.lookup != nil {
				return dc.lookup(idx)
			}
			return nil
		},
		RxQueueFor: func(dst ether.MAC) int {
			for _, dc := range n.attached {
				if dc.ctx.MAC == dst {
					return dc.qid
				}
			}
			if n.promiscCtx >= 0 {
				if dc := n.ctxByID(n.promiscCtx); dc != nil {
					return dc.qid
				}
			}
			return -1
		},
		OnRxDelivered: func(qid int, f *ether.Frame, d ring.Desc) {
			if dc := n.queueCtx(qid); dc != nil {
				dc.rxDone.Append(RxCompletion{Frame: f, Desc: d})
			} else {
				f.Release()
			}
		},
		OnCompletion: func(qid int, tx bool) {
			if dc := n.queueCtx(qid); dc != nil {
				n.BitVec.Accumulate(dc.ctx.ID)
				if tx {
					n.Coal.Event()
				} else {
					n.RxCoal.Event()
				}
			}
		},
	}
	return n, nil
}

// queueCtx returns the device context attached to an engine qid, or nil.
func (n *NIC) queueCtx(qid int) *devContext {
	if qid < 0 || qid >= len(n.byQueue) {
		return nil
	}
	return n.byQueue[qid]
}

// ctxByID returns the device context for a context ID, or nil.
func (n *NIC) ctxByID(ctxID int) *devContext {
	if ctxID < 0 || ctxID >= len(n.contexts) {
		return nil
	}
	return n.contexts[ctxID]
}

func (n *NIC) checkSeq(tx bool) func(int, ring.Desc) bool {
	if !n.Params.SeqCheck {
		return nil
	}
	return func(qid int, d ring.Desc) bool {
		dc := n.queueCtx(qid)
		if dc == nil {
			return false
		}
		if tx {
			return dc.ctx.TxSeq.Check(d.Seq)
		}
		return dc.ctx.RxSeq.Check(d.Seq)
	}
}

func (n *NIC) engineFault(qid int, tx bool, d ring.Desc) {
	dc := n.queueCtx(qid)
	if dc == nil {
		return
	}
	reason := core.FaultSeqMismatch
	f := &core.Fault{ContextID: dc.ctx.ID, Owner: dc.ctx.Owner, Reason: reason}
	if n.onFault != nil {
		n.onFault(f)
	}
}

// fireInterrupt posts the interrupt bit vector via DMA and raises the
// physical interrupt (§3.2).
func (n *NIC) fireInterrupt() {
	vec, ok := n.BitVec.Post()
	if !ok {
		// Buffer full: bits remain accumulated; the host ISR will drain
		// and the next completion retries.
		return
	}
	n.postedVecs.Push(vec)
	n.bus.DMA(core.PostBytes, n.bitvecDoneFn)
}

// bitvecDone runs when a posted bit vector's DMA lands in host memory.
func (n *NIC) bitvecDone() {
	vec := n.postedVecs.Pop()
	if n.raiseIRQ == nil {
		return
	}
	if !n.Params.DirectPerContextIRQ {
		n.raiseIRQ()
		return
	}
	// Ablation: one physical interrupt per context with updates.
	for c := 0; c < 32; c++ {
		if vec&(1<<uint(c)) != 0 {
			n.raiseIRQ()
		}
	}
}

// SetHost installs the hypervisor-facing callbacks: the physical
// interrupt line and the protection-fault report channel.
func (n *NIC) SetHost(raiseIRQ func(), onFault func(*core.Fault)) {
	n.raiseIRQ = raiseIRQ
	n.onFault = onFault
}

// AttachContext activates a hardware context previously assigned by the
// hypervisor's ContextManager and installs the guest driver's tx frame
// lookup.
func (n *NIC) AttachContext(ctx *core.Context, lookup func(idx uint32) *ether.Frame) {
	qid := n.E.AddQueue(ctx.TxRing, ctx.RxRing)
	dc := &devContext{ctx: ctx, qid: qid, lookup: lookup}
	for ctx.ID >= len(n.contexts) {
		n.contexts = append(n.contexts, nil)
	}
	n.contexts[ctx.ID] = dc
	for qid >= len(n.byQueue) {
		n.byQueue = append(n.byQueue, nil)
	}
	n.byQueue[qid] = dc
	n.attached = append(n.attached, dc)
}

// DetachContext shuts down all pending operations for a context (§3.1
// revocation).
func (n *NIC) DetachContext(ctxID int) {
	dc := n.ctxByID(ctxID)
	if dc == nil {
		return
	}
	n.E.DetachQueue(dc.qid)
	for i := 0; i < dc.rxDone.Len(); i++ {
		dc.rxDone.At(i).Frame.Release()
	}
	dc.rxDone.Reset()
	n.Mbox.ClearContext(ctxID)
	n.contexts[ctxID] = nil
	n.byQueue[dc.qid] = nil
	for i, a := range n.attached {
		if a == dc {
			n.attached = append(n.attached[:i], n.attached[i+1:]...)
			break
		}
	}
}

// MailboxWrite is the guest's PIO into its context partition. The
// hardware records the event; the firmware decodes it asynchronously.
// PIO CPU cost is charged by the driver.
func (n *NIC) MailboxWrite(ctxID, mbox int, val uint32) {
	n.Mbox.Write(ctxID, mbox, val)
	n.decodeEvents()
}

func (n *NIC) decodeEvents() {
	if n.decoding || !n.Mbox.Pending() {
		return
	}
	n.decoding = true
	n.E.Proc.Do(n.Params.MboxDecode, n.decodeDoneFn)
}

func (n *NIC) decodeDone() {
	n.decoding = false
	ctx, mbox, val, ok := n.Mbox.DecodeNext()
	if ok {
		n.handleMailbox(ctx, mbox, val)
	}
	n.decodeEvents()
}

func (n *NIC) handleMailbox(ctxID, mbox int, val uint32) {
	dc := n.ctxByID(ctxID)
	if dc == nil {
		return // stale event for a revoked context
	}
	switch mbox {
	case MboxTxProd:
		n.E.KickTx(dc.qid, val)
	case MboxRxProd:
		n.E.KickRx(dc.qid, val)
	}
}

// DrainRx hands the guest driver its completed receive frames.
func (n *NIC) DrainRx(ctxID int) []RxCompletion {
	dc := n.ctxByID(ctxID)
	if dc == nil {
		return nil
	}
	// One swap hands the whole burst across the device/driver boundary;
	// the caller consumes the returned slice before the next drain (the
	// driver's virq task does, synchronously).
	return dc.rxDone.Drain()
}

// RxPending returns queued, undrained receive completions for a context.
func (n *NIC) RxPending(ctxID int) int {
	if dc := n.ctxByID(ctxID); dc != nil {
		return dc.rxDone.Len()
	}
	return 0
}

// Receive implements ether.Port: MAC demultiplexing happens in
// Hooks.RxQueueFor.
func (n *NIC) Receive(f *ether.Frame) { n.E.Receive(f) }
