// Package xen models the Xen VMM as the paper uses it (§2): a hypervisor
// that owns all physical interrupts, delivers virtual interrupts over
// event channels, schedules domains on the shared CPU, and — for CDNA —
// hosts the DMA protection engine and decodes interrupt bit vectors
// (§3.2–3.3).
//
// CPU time for every hypervisor operation is charged through
// internal/cpu so the execution profiles in the paper's tables can be
// reproduced: hypercalls run in the calling domain's context but are
// charged to the hypervisor category, and ISRs run on the global
// interrupt queue.
package xen

import (
	"cdna/internal/core"
	"cdna/internal/cpu"
	"cdna/internal/mem"
	"cdna/internal/ring"
	"cdna/internal/sim"
	"cdna/internal/stats"
)

// faultOp is one fielded-but-unserviced protection fault.
type faultOp struct {
	cm *core.ContextManager
	f  *core.Fault
}

// Params are the hypervisor cost constants. Derivations from the paper's
// tables are documented in internal/bench/params.go, which owns the
// top-level calibration.
type Params struct {
	ISRCost       sim.Time // physical interrupt entry + routing
	BitvecBase    sim.Time // CDNA ISR: drain + decode base cost
	BitvecPerCtx  sim.Time // per set context bit (virq scheduling)
	VirqSend      sim.Time // event-channel notify hypercall (sender side)
	VirqDeliver   sim.Time // event dispatch in the target domain (kernel)
	HypercallBase sim.Time // fixed cost of any hypercall
	CDNAPerDesc   sim.Time // descriptor validation + seq stamp + ring write
	CDNAPerPage   sim.Time // ownership check + refcount per page
	TickPeriod    sim.Time // domain timer tick period (100 Hz)
	TickCost      sim.Time // guest kernel cost per tick
	TickISR       sim.Time // hypervisor timer ISR per tick
}

// DefaultParams returns baseline hypervisor costs.
func DefaultParams() Params {
	return Params{
		ISRCost:       900 * sim.Nanosecond,
		BitvecBase:    300 * sim.Nanosecond,
		BitvecPerCtx:  200 * sim.Nanosecond,
		VirqSend:      450 * sim.Nanosecond,
		VirqDeliver:   350 * sim.Nanosecond,
		HypercallBase: 550 * sim.Nanosecond,
		CDNAPerDesc:   180 * sim.Nanosecond,
		CDNAPerPage:   120 * sim.Nanosecond,
		TickPeriod:    10 * sim.Millisecond,
		TickCost:      2 * sim.Microsecond,
		TickISR:       500 * sim.Nanosecond,
	}
}

// Hypervisor is the VMM.
type Hypervisor struct {
	Eng    *sim.Engine
	CPU    *cpu.CPU
	Mem    *mem.Memory
	Params Params

	// CDNA pieces (nil in pure software-virtualization setups).
	Prot   *core.Protection
	CtxMgr *core.ContextManager

	domains   []*Domain
	nextDomID mem.DomID

	pendFaults sim.FIFO[faultOp]
	faultFn    sim.Fn

	PhysIRQs stats.Counter // physical interrupts fielded
	Faults   stats.Counter // CDNA protection faults handled
}

// New creates a hypervisor over the machine's CPU and memory. Protection
// mode configures the CDNA engine; pure Xen setups simply never use it.
func New(eng *sim.Engine, c *cpu.CPU, m *mem.Memory, p Params, mode core.Mode) *Hypervisor {
	h := &Hypervisor{Eng: eng, CPU: c, Mem: m, Params: p, nextDomID: mem.Dom0}
	h.faultFn = eng.Bind("cdna.fault", h.serviceFault)
	h.Prot = core.NewProtection(m, mode)
	h.CtxMgr = core.NewContextManager(h.Prot)
	return h
}

// Domain is a virtual machine under the hypervisor.
type Domain struct {
	ID   mem.DomID
	Name string
	VCPU *cpu.Domain
	hyp  *Hypervisor

	// Virqs counts virtual interrupts delivered to this domain (the
	// "Interrupts/s" columns of Tables 2–4).
	Virqs stats.Counter
}

// NewDomain creates a domain; the first one created is the driver domain
// (Dom0), subsequent ones are guests.
func (h *Hypervisor) NewDomain(name string, kind cpu.Kind) *Domain {
	d := &Domain{ID: h.nextDomID, Name: name, VCPU: h.CPU.NewDomain(name, kind), hyp: h}
	h.nextDomID++
	h.domains = append(h.domains, d)
	return d
}

// Domains returns all domains.
func (h *Hypervisor) Domains() []*Domain { return h.domains }

// Hypercall runs fn in the domain's context with the given cost charged
// to the hypervisor category (on top of the fixed hypercall base cost).
// The event carries fn's label; callers bind hypercall callbacks under
// an "hc:" name.
func (d *Domain) Hypercall(extra sim.Time, fn sim.Fn) {
	d.VCPU.Exec(cpu.CatHyp, d.hyp.Params.HypercallBase+extra, fn)
}

// EventChannel is a Xen event channel bound to a handler in a target
// domain. Notifications while one is already pending are merged, exactly
// like the real pending-bit semantics — this is what keeps virtual
// interrupt rates bounded under load.
type EventChannel struct {
	Name    string
	target  *Domain
	handler func()
	pending bool

	// Delivery/send callbacks, bound once at NewChannel so Notify
	// allocates nothing per interrupt.
	deliverFn sim.Fn
	notifyFn  sim.Fn

	Notifies stats.Counter // send attempts
	Merged   stats.Counter // sends coalesced onto a pending event
}

// NewChannel creates an event channel delivering to handler in target.
func (h *Hypervisor) NewChannel(target *Domain, name string, handler func()) *EventChannel {
	ch := &EventChannel{Name: name, target: target, handler: handler}
	ch.deliverFn = h.Eng.Bind("virq:"+name, ch.deliver)
	ch.notifyFn = h.Eng.Bind("evtchn_send", ch.Notify)
	return ch
}

// Notify marks the channel pending and schedules the virtual interrupt.
// The sender has already been charged (hypercall or ISR context); the
// target pays the dispatch cost when it runs.
func (ch *EventChannel) Notify() {
	ch.Notifies.Inc()
	if ch.pending {
		ch.Merged.Inc()
		return
	}
	ch.pending = true
	d := ch.target
	d.Virqs.Inc()
	d.VCPU.ExecFront(cpu.CatKernel, d.hyp.Params.VirqDeliver, ch.deliverFn)
}

func (ch *EventChannel) deliver() {
	ch.pending = false
	ch.handler()
}

// NotifyFromGuest is an event-channel send issued by a guest (a
// hypercall): the sender is charged VirqSend in hypervisor category,
// then the notification is delivered.
func (ch *EventChannel) NotifyFromGuest(sender *Domain) {
	sender.VCPU.Exec(cpu.CatHyp, sender.hyp.Params.VirqSend, ch.notifyFn)
}

// IRQLine is a physical interrupt routed through the hypervisor.
type IRQLine struct {
	hyp     *Hypervisor
	handler sim.Fn // runs in ISR (hypervisor) context
}

// NewIRQ allocates an interrupt line whose handler runs in the
// hypervisor's ISR context, its events named "irq:" + name.
func (h *Hypervisor) NewIRQ(name string, handler func()) *IRQLine {
	return &IRQLine{hyp: h, handler: h.Eng.Bind("irq:"+name, handler)}
}

// Raise fields the physical interrupt: the hypervisor's ISR runs at the
// next task boundary and invokes the handler.
func (l *IRQLine) Raise() {
	l.hyp.PhysIRQs.Inc()
	l.hyp.CPU.ExecISR(l.hyp.Params.ISRCost, l.handler)
}

// StartTimers begins periodic timer ticks: a hypervisor timer ISR plus a
// per-domain kernel tick, the background heartbeat every real system
// carries. The driver domain's residual 0.3–0.5% time in the paper's
// CDNA rows is exactly this kind of non-networking activity. The tick
// is one sim.Timer re-armed in place for the life of the run.
func (h *Hypervisor) StartTimers() {
	isr, tick := h.Eng.Bind("timer", nil), h.Eng.Bind("tick", nil)
	var tm *sim.Timer
	tm = h.Eng.NewTimer("timer.tick", func() {
		h.CPU.ExecISR(h.Params.TickISR, isr)
		for _, d := range h.domains {
			d.VCPU.Exec(cpu.CatKernel, h.Params.TickCost, tick)
		}
		tm.ArmAfter(h.Params.TickPeriod)
	})
	tm.ArmAfter(h.Params.TickPeriod)
}

// --- CDNA integration (§3.2–3.3) ---

// CDNAEnqueueCost is the charged cost of a cdna_enqueue hypercall for a
// descriptor batch (§3.3): it scales with the number of descriptors and
// the pages they span. The guest driver issues the hypercall itself —
// d.Hypercall(cost, fn) with its own bound callback —
// so the pending operation lives in the driver's queue instead of a
// per-call capturing closure.
func (d *Domain) CDNAEnqueueCost(descs []ring.Desc) sim.Time {
	pages := 0
	for _, desc := range descs {
		_, n := mem.RangeSpan(desc.Addr, int(desc.Len))
		pages += n
	}
	return sim.Time(len(descs))*d.hyp.Params.CDNAPerDesc + sim.Time(pages)*d.hyp.Params.CDNAPerPage
}

// CDNAValidate runs the protection engine for a descriptor batch in the
// domain's name — the body of the cdna_enqueue hypercall.
func (d *Domain) CDNAValidate(r *ring.Ring, descs []ring.Desc) (int, error) {
	return d.hyp.Prot.Enqueue(d.ID, r, descs)
}

// BitVecDecoder is the hypervisor's CDNA interrupt service path (§3.2)
// for one NIC: drain the bit-vector queue, then notify the event channel
// of every context with a set bit. The per-context decode cost is
// charged as additional ISR work; the drained masks await that charged
// decode in a queue rather than a captured closure, so an interrupt
// allocates nothing.
//
// channels is indexed by context ID (nil entries are contexts without a
// registered channel). A dense slice instead of a map keeps delivery
// order structurally tied to ascending context ID — map iteration order
// can never leak into the simulation — and makes the per-interrupt
// decode loop allocation- and hash-free. The decoder keeps the slice
// the builder hands it, so channels registered after construction are
// seen as long as the backing array is shared.
type BitVecDecoder struct {
	hyp      *Hypervisor
	q        *core.BitVectorQueue
	channels []*EventChannel
	pend     sim.FIFO[uint32] // drained masks awaiting the charged decode
	decodeFn sim.Fn
}

// NewBitVecDecoder creates the ISR-side decoder for one NIC's
// bit-vector queue.
func (h *Hypervisor) NewBitVecDecoder(q *core.BitVectorQueue, channels []*EventChannel) *BitVecDecoder {
	d := &BitVecDecoder{hyp: h, q: q, channels: channels}
	d.decodeFn = h.Eng.Bind("cdna.bitvec", d.decode)
	return d
}

// HandleIRQ drains the queue and schedules the charged decode. It is
// the physical-IRQ handler body for a CDNA NIC.
func (d *BitVecDecoder) HandleIRQ() {
	bits, _ := d.q.Drain()
	n := 0
	for ctx := 0; ctx < core.NumContexts; ctx++ {
		if bits&(1<<uint(ctx)) != 0 {
			n++
		}
	}
	if n == 0 {
		return
	}
	d.pend.Push(bits)
	d.hyp.CPU.ExecISR(d.hyp.Params.BitvecBase+sim.Time(n)*d.hyp.Params.BitvecPerCtx, d.decodeFn)
}

func (d *BitVecDecoder) decode() {
	bits := d.pend.Pop()
	for ctx := 0; ctx < core.NumContexts && ctx < len(d.channels); ctx++ {
		if bits&(1<<uint(ctx)) != 0 && d.channels[ctx] != nil {
			d.channels[ctx].Notify()
		}
	}
}

// HandleFault services a CDNA protection fault reported by the NIC: the
// offending context is revoked (§3.3). Each CDNA NIC has its own
// ContextManager (contexts are per-device); pass the manager for the
// faulting NIC — or nil to use the hypervisor's default manager. Faults
// awaiting service queue on the hypervisor (they only occur in attack
// scenarios).
func (h *Hypervisor) HandleFault(cm *core.ContextManager, f *core.Fault) {
	if cm == nil {
		cm = h.CtxMgr
	}
	h.Faults.Inc()
	h.pendFaults.Push(faultOp{cm: cm, f: f})
	h.CPU.ExecISR(h.Params.ISRCost, h.faultFn)
}

func (h *Hypervisor) serviceFault() {
	op := h.pendFaults.Pop()
	op.cm.HandleFault(op.f)
}

// StartWindow resets hypervisor-level windowed counters.
func (h *Hypervisor) StartWindow() {
	h.PhysIRQs.StartWindow()
	h.Faults.StartWindow()
	for _, d := range h.domains {
		d.Virqs.StartWindow()
	}
}
