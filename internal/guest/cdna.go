package guest

import (
	"cdna/internal/core"
	"cdna/internal/cpu"
	"cdna/internal/ether"
	"cdna/internal/mem"
	"cdna/internal/ricenic"
	"cdna/internal/ring"
	"cdna/internal/sim"
	"cdna/internal/stats"
	"cdna/internal/xen"
)

// CDNADriver is the guest device driver for one hardware context on a
// CDNA NIC (§3). It interacts with its context exactly as if it were an
// independent physical NIC — building DMA descriptors and writing
// producer indices into its mailbox partition via PIO — except that
// descriptor enqueues go through the hypervisor for validation
// (ModeHypercall), or directly when an IOMMU provides protection or
// protection is disabled (§5.3, Table 4).
type CDNADriver struct {
	Dom   *xen.Domain
	Mem   *mem.Memory
	NIC   *ricenic.NIC
	Ctx   *core.Context
	Costs DriverCosts

	// MaxBatch caps descriptors per enqueue call (0 = unlimited); the
	// batching ablation sweeps it.
	MaxBatch int

	// Direct bypasses the enqueue hypercall (ModeIOMMU / ModeOff);
	// DirectPerDesc is the guest-kernel cost of writing a descriptor
	// itself.
	Direct        bool
	DirectPerDesc sim.Time
	Prot          *core.Protection

	// In-flight transmit frames indexed by slot(ring index), as the
	// pools' slot tables are; a nil frame marks an empty slot.
	inflight []*ether.Frame

	// Recycled batch buffers: a staged batch and its descriptor image
	// travel through an async enqueue (hypercall or direct) and return
	// to these free lists in the completion, so steady-state batching
	// allocates nothing.
	stagedFree [][]stagedPkt
	descFree   [][]ring.Desc

	backlog                sim.FIFO[*ether.Frame] // qdisc: frames waiting for ring space
	stagedTx               []stagedPkt
	stagedRx               int
	enqTx                  bool
	enqRx                  bool
	lastTxCons, lastRxCons uint32

	// enqOps carries each staged batch through its asynchronous enqueue
	// (hypercall or direct): the op is pushed when the charged task is
	// scheduled and popped by the task body, in task-queue order. A
	// queue instead of a captured closure keeps in-flight enqueues
	// allocation-free.
	enqOps sim.FIFO[enqOp]

	rxHandler func(*ether.Frame)

	// Per-packet frames threaded through domain tasks (FIFO order) plus
	// the task callbacks bound once in NewCDNADriver; the batch-level
	// enqueue/kick callbacks are bound too since they capture only d.
	txIn sim.FIFO[*ether.Frame]
	rxUp sim.FIFO[*ether.Frame]

	txInFn, rxUpFn, virqFn, txBatchFn, rxBatchFn, kickFn sim.Fn
	hcFn, directFn, rxDirectFn, rxPioFn                  sim.Fn

	TxDropped   stats.Counter
	EnqueueErrs stats.Counter

	// The buffer pools hold no pointers; last in the struct, they lie
	// past the words the garbage collector scans.
	txPool, rxPool bufPool
}

type stagedPkt struct {
	desc  ring.Desc
	frame *ether.Frame
}

// enqOp is one staged descriptor batch in flight through its enqueue
// call. tx carries the staged packets to complete; rx carries only the
// buffer count (n) the descriptors were built from.
type enqOp struct {
	tx    bool
	batch []stagedPkt
	descs []ring.Desc
	n     int
}

// NewCDNADriver binds a driver to an assigned context. The rings were
// created in guest memory when the hypervisor assigned the context.
func NewCDNADriver(dom *xen.Domain, m *mem.Memory, n *ricenic.NIC, ctx *core.Context, costs DriverCosts, prot *core.Protection, direct bool, directPerDesc sim.Time) *CDNADriver {
	// The slot tables below are indexed by free-running ring index
	// masked to RingEntries; rings of any other size would alias slots.
	if ctx.TxRing.Entries != RingEntries || ctx.RxRing.Entries != RingEntries {
		panic("guest: CDNA context rings must have guest.RingEntries slots")
	}
	d := &CDNADriver{
		Dom: dom, Mem: m, NIC: n, Ctx: ctx, Costs: costs,
		Direct: direct, DirectPerDesc: directPerDesc, Prot: prot,
		inflight: make([]*ether.Frame, RingEntries),
	}
	eng := dom.VCPU.Engine()
	d.txInFn = eng.Bind("cdna.tx", d.txEnqueueTask)
	d.rxUpFn = eng.Bind("cdna.rx", d.rxUpTask)
	d.virqFn = eng.Bind("cdna.virq", d.virqTask)
	d.txBatchFn = eng.Bind("cdna.txbatch", d.txBatchTask)
	d.rxBatchFn = eng.Bind("cdna.rxbatch", d.rxBatchTask)
	d.kickFn = eng.Bind("cdna.pio", d.kickTask)
	d.hcFn = eng.Bind("hc:cdna_enqueue", d.hypercallTask)
	d.directFn = eng.Bind("cdna.direct", d.directTask)
	d.rxDirectFn = eng.Bind("cdna.rxdirect", d.directTask)
	d.rxPioFn = eng.Bind("cdna.rxpio", d.kickRxTask)
	d.txPool.init(m, dom.ID)
	d.rxPool.init(m, dom.ID)
	n.AttachContext(ctx, func(idx uint32) *ether.Frame { return d.inflight[idx&(RingEntries-1)] })
	return d
}

// slot maps a free-running ring index to its table slot.
func slot(idx uint32) uint32 { return idx & (RingEntries - 1) }

func (d *CDNADriver) takeStaged() []stagedPkt {
	if n := len(d.stagedFree); n > 0 {
		b := d.stagedFree[n-1]
		d.stagedFree = d.stagedFree[:n-1]
		return b
	}
	return nil
}

func (d *CDNADriver) takeDescs(n int) []ring.Desc {
	// Pop only when the pooled buffer is big enough; an undersized one
	// stays pooled (its eventual larger replacement lands above it and
	// serves future takes), instead of being dropped and reallocated.
	if k := len(d.descFree); k > 0 {
		if b := d.descFree[k-1]; cap(b) >= n {
			d.descFree = d.descFree[:k-1]
			return b[:n]
		}
	}
	return make([]ring.Desc, n)
}

// putDescs returns a descriptor image to the pool unless it spans a
// whole ring, as Start's one-shot post of every rx buffer does: every
// later batch would fit in such an image, so pooling it would keep it
// live for the driver's life.
func (d *CDNADriver) putDescs(b []ring.Desc) {
	if cap(b) < RingEntries-1 {
		d.descFree = append(d.descFree, b)
	}
}

// MAC implements NetDevice: the context's unique Ethernet address.
func (d *CDNADriver) MAC() ether.MAC { return d.Ctx.MAC }

// SetRxHandler implements NetDevice.
func (d *CDNADriver) SetRxHandler(h func(*ether.Frame)) { d.rxHandler = h }

// Start posts the initial receive buffers through the protection path.
func (d *CDNADriver) Start() {
	d.stagedRx = min(RingEntries-1, d.rxPool.Len())
	d.flushRx()
}

// StartXmit implements NetDevice.
func (d *CDNADriver) StartXmit(f *ether.Frame) {
	d.txIn.Push(f)
	d.Dom.VCPU.Exec(cpu.CatKernel, ScaleCost(d.Costs.TxPerPkt, f.Size), d.txInFn)
}

func (d *CDNADriver) txEnqueueTask() {
	f := d.txIn.Pop()
	if d.backlog.Len() >= qdiscLimit {
		d.TxDropped.Inc()
		f.Release()
		return
	}
	d.backlog.Push(f)
	d.reapTx()
	d.stageFromBacklog()
	d.scheduleTxEnqueue()
}

// stageFromBacklog moves backlog frames into the staged batch while
// buffer pages and ring space allow.
func (d *CDNADriver) stageFromBacklog() {
	for d.backlog.Len() > 0 && d.txPool.Len() > 0 &&
		len(d.stagedTx)+d.Ctx.TxRing.Avail() < RingEntries-1 {
		f := d.backlog.Pop()
		d.stagedTx = append(d.stagedTx, stagedPkt{
			desc:  ring.Desc{Addr: d.txPool.pop().Base(), Len: uint16(f.Size), Flags: ring.FlagTx},
			frame: f,
		})
	}
}

func (d *CDNADriver) scheduleTxEnqueue() {
	if d.enqTx {
		return
	}
	d.enqTx = true
	d.Dom.VCPU.Exec(cpu.CatKernel, d.Costs.BatchFixed, d.txBatchFn)
}

func (d *CDNADriver) txBatchTask() {
	d.enqTx = false
	batch := d.stagedTx
	d.stagedTx = d.takeStaged()
	if d.MaxBatch > 0 && len(batch) > d.MaxBatch {
		// The tail beyond the cap is re-staged; it keeps the batch's
		// backing array, and the capped head is completed from it.
		d.stagedTx = append(d.stagedTx, batch[d.MaxBatch:]...)
		batch = batch[:d.MaxBatch]
		d.scheduleTxEnqueue()
	}
	if len(batch) == 0 {
		d.releaseStaged(batch)
		return
	}
	descs := d.takeDescs(len(batch))
	for i, s := range batch {
		descs[i] = s.desc
	}
	d.issueEnqueue(enqOp{tx: true, batch: batch, descs: descs})
}

// issueEnqueue schedules the charged enqueue call for an op: the direct
// guest-kernel write (ModeIOMMU / ModeOff) or the validation hypercall.
func (d *CDNADriver) issueEnqueue(op enqOp) {
	d.enqOps.Push(op)
	if d.Direct {
		fn := d.rxDirectFn
		if op.tx {
			fn = d.directFn
		}
		d.Dom.VCPU.Exec(cpu.CatKernel, sim.Time(len(op.descs))*d.DirectPerDesc, fn)
		return
	}
	d.Dom.Hypercall(d.Dom.CDNAEnqueueCost(op.descs), d.hcFn)
}

func (d *CDNADriver) opRing(op enqOp) *ring.Ring {
	if op.tx {
		return d.Ctx.TxRing
	}
	return d.Ctx.RxRing
}

func (d *CDNADriver) hypercallTask() {
	op := d.enqOps.Pop()
	n, err := d.Dom.CDNAValidate(d.opRing(op), op.descs)
	d.finishEnqueue(op, n, err)
}

func (d *CDNADriver) directTask() {
	op := d.enqOps.Pop()
	n, err := d.Prot.DirectEnqueue(d.Dom.ID, d.opRing(op), op.descs)
	d.finishEnqueue(op, n, err)
}

// finishEnqueue completes an op in the context of its enqueue call,
// exactly what the per-batch completion closures used to do.
func (d *CDNADriver) finishEnqueue(op enqOp, n int, err error) {
	if op.tx {
		if err != nil {
			d.EnqueueErrs.Add(uint64(len(op.batch)))
			for _, s := range op.batch {
				d.txPool.put(s.desc.Addr.PFN())
				s.frame.Release()
			}
		} else {
			base := d.Ctx.TxRing.Prod() - uint32(n)
			for i, s := range op.batch {
				idx := base + uint32(i)
				d.inflight[slot(idx)] = s.frame
				d.txPool.hold(idx, s.desc.Addr.PFN())
			}
			d.kickTx()
		}
		d.releaseStaged(op.batch)
		d.putDescs(op.descs)
		return
	}
	if err != nil {
		d.EnqueueErrs.Add(uint64(op.n))
		for i := 0; i < op.n; i++ {
			d.rxPool.put(op.descs[i].Addr.PFN())
		}
	} else {
		base := d.Ctx.RxRing.Prod() - uint32(n)
		for i := 0; i < n; i++ {
			d.rxPool.hold(base+uint32(i), op.descs[i].Addr.PFN())
		}
		d.Dom.VCPU.Exec(cpu.CatKernel, d.Costs.PIO, d.rxPioFn)
	}
	d.putDescs(op.descs)
}

func (d *CDNADriver) kickRxTask() {
	d.NIC.PIOWrite(ricenic.MailboxPIOAddr(d.Ctx.ID, ricenic.MboxRxProd), d.Ctx.RxRing.Prod())
}

func (d *CDNADriver) kickTx() {
	d.Dom.VCPU.Exec(cpu.CatKernel, d.Costs.PIO, d.kickFn)
}

func (d *CDNADriver) kickTask() {
	d.NIC.PIOWrite(ricenic.MailboxPIOAddr(d.Ctx.ID, ricenic.MboxTxProd), d.Ctx.TxRing.Prod())
}

// releaseStaged returns a consumed batch buffer to the free list,
// clearing the full used region — including entries beyond a MaxBatch
// re-slice — so the pooled array pins no frames or buffer pages.
func (d *CDNADriver) releaseStaged(batch []stagedPkt) {
	batch = batch[:cap(batch)]
	for i := range batch {
		batch[i] = stagedPkt{}
	}
	d.stagedFree = append(d.stagedFree, batch[:0])
}

// reapTx recycles transmit buffers the NIC has finished with (the
// consumer index it wrote back has passed them).
func (d *CDNADriver) reapTx() {
	for d.lastTxCons != d.Ctx.TxRing.Cons() {
		d.txPool.reap(d.lastTxCons)
		idx := slot(d.lastTxCons)
		if f := d.inflight[idx]; f != nil {
			f.Release()
			d.inflight[idx] = nil
		}
		d.lastTxCons++
	}
}

// OnVirq is the driver's virtual-interrupt handler (§3.2): invoked when
// the hypervisor decodes this context's bit from a NIC interrupt bit
// vector.
func (d *CDNADriver) OnVirq() {
	d.Dom.VCPU.Exec(cpu.CatKernel, d.Costs.IrqFixed, d.virqFn)
}

func (d *CDNADriver) virqTask() {
	d.reapTx()
	if d.backlog.Len() > 0 {
		d.stageFromBacklog()
		d.scheduleTxEnqueue()
	}
	comps := d.NIC.DrainRx(d.Ctx.ID)
	for _, c := range comps {
		f := c.Frame
		d.rxUp.Push(f)
		d.Dom.VCPU.Exec(cpu.CatKernel, ScaleCost(d.Costs.RxPerPkt, f.Size), d.rxUpFn)
	}
	// Recycle consumed rx buffers and repost the same count.
	for d.lastRxCons != d.Ctx.RxRing.Cons() {
		d.rxPool.reap(d.lastRxCons)
		d.lastRxCons++
	}
	if len(comps) > 0 {
		d.stagedRx += len(comps)
		d.flushRx()
	}
}

func (d *CDNADriver) rxUpTask() {
	f := d.rxUp.Pop()
	if d.rxHandler != nil {
		d.rxHandler(f)
	} else {
		f.Release()
	}
}

// flushRx posts stagedRx receive buffers in one batched enqueue.
func (d *CDNADriver) flushRx() {
	if d.enqRx {
		return
	}
	d.enqRx = true
	d.Dom.VCPU.Exec(cpu.CatKernel, d.Costs.BatchFixed, d.rxBatchFn)
}

func (d *CDNADriver) rxBatchTask() {
	d.enqRx = false
	n := min(d.stagedRx, d.rxPool.Len())
	if d.MaxBatch > 0 && n > d.MaxBatch {
		n = d.MaxBatch
	}
	if n <= 0 {
		return
	}
	d.stagedRx -= n
	if d.stagedRx > 0 {
		d.flushRx()
	}
	descs := d.takeDescs(n)
	for i := 0; i < n; i++ {
		descs[i] = ring.Desc{Addr: d.rxPool.pop().Base(), Len: ether.HeaderBytes + ether.MTU + 86, Flags: ring.FlagValid}
	}
	d.issueEnqueue(enqOp{descs: descs, n: n})
}

// --- Misbehaving-driver entry points (fault-injection tests; §3.3's
// threat model). Each attack is a one-off raw callback, so it binds
// nothing and traces show its event unnamed. ---

// AttackForeignEnqueue attempts to enqueue a descriptor pointing at
// another domain's memory; the result arrives on cb.
func (d *CDNADriver) AttackForeignEnqueue(victim mem.Addr, cb func(error)) {
	descs := []ring.Desc{{Addr: victim, Len: 1514, Flags: ring.FlagTx}}
	if d.Direct {
		d.Dom.VCPU.Exec(cpu.CatKernel, d.DirectPerDesc, sim.RawFn(func() {
			_, err := d.Prot.DirectEnqueue(d.Dom.ID, d.Ctx.TxRing, descs)
			cb(err)
		}))
		return
	}
	d.Dom.Hypercall(d.Dom.CDNAEnqueueCost(descs), sim.RawFn(func() {
		_, err := d.Dom.CDNAValidate(d.Ctx.TxRing, descs)
		cb(err)
	}))
}

// AttackStaleProducer forges a producer-index mailbox write `extra`
// slots past the last valid descriptor, exposing stale ring contents —
// the replay the sequence numbers must catch.
func (d *CDNADriver) AttackStaleProducer(extra uint32) {
	d.Dom.VCPU.Exec(cpu.CatKernel, d.Costs.PIO, sim.RawFn(func() {
		d.NIC.PIOWrite(ricenic.MailboxPIOAddr(d.Ctx.ID, ricenic.MboxTxProd), d.Ctx.TxRing.Prod()+extra)
	}))
}
