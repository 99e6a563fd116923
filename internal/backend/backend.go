// Package backend implements Xen's paravirtual network path (§2.1): the
// front-end driver in each guest, the back-end driver in the privileged
// driver domain, the page-remapping transfers between them, and the
// software Ethernet bridge that multiplexes all guests onto the physical
// NIC. This is the software-virtualization architecture whose overheads
// CDNA eliminates; its costs are what the paper's Tables 2–3 attribute
// to the driver domain.
package backend

import (
	"cdna/internal/cpu"
	"cdna/internal/ether"
	"cdna/internal/guest"
	"cdna/internal/sim"
	"cdna/internal/stats"
	"cdna/internal/xen"
)

// FrontCosts are the guest-side (netfront) CPU costs.
type FrontCosts struct {
	TxPerPkt    sim.Time // grant + shared-ring publish per packet
	RxPerPkt    sim.Time // consume + deliver per received packet
	NotifyFixed sim.Time // batched event-channel notify preparation
	IrqFixed    sim.Time // fixed work per virtual interrupt
}

// BackCosts are the driver-domain (netback) CPU costs.
type BackCosts struct {
	VisitFixed   sim.Time // fixed cost per per-guest ring visit
	TxPerPkt     sim.Time // guest->wire per packet (copy/remap bookkeeping)
	RxPerPkt     sim.Time // wire->guest per packet
	BridgePerPkt sim.Time // Ethernet bridge traversal
	FlipPerPkt   sim.Time // tx page remap grant operation (charged to hypervisor)
	// FlipRxPerPkt is the receive-side page remap: mapping a foreign
	// page into the guest plus the TLB shootdown makes it far costlier
	// than the transmit grant, which is why the paper's receive path
	// spends so much more time in the hypervisor (Table 3).
	FlipRxPerPkt sim.Time
	NotifyFixed  sim.Time // batched notify toward a guest
	// Budget is the maximum packets netback moves per ring visit before
	// notifying the guest and rescheduling itself (real netback works in
	// bounded batches; this also sets the guest's tx-completion
	// interrupt rate).
	Budget int
}

// Netfront is the paravirtualized guest NIC driver; it satisfies
// guest.NetDevice.
type Netfront struct {
	Dom   *xen.Domain
	Costs FrontCosts

	mac       ether.MAC
	vif       *Vif
	rxHandler func(*ether.Frame)
	notifyQd  bool

	// Per-packet frames queued into guest tasks (FIFO order) and the
	// task callbacks bound once when the vif is created.
	txIn sim.FIFO[*ether.Frame]
	rxUp sim.FIFO[*ether.Frame]

	txInFn, rxUpFn, virqFn, notifyFn sim.Fn
}

// MAC implements guest.NetDevice.
func (f *Netfront) MAC() ether.MAC { return f.mac }

// SetRxHandler implements guest.NetDevice.
func (f *Netfront) SetRxHandler(h func(*ether.Frame)) { f.rxHandler = h }

// StartXmit implements guest.NetDevice: the packet is granted to the
// back end over the shared ring, with a batched notification.
func (f *Netfront) StartXmit(frame *ether.Frame) {
	f.txIn.Push(frame)
	f.Dom.VCPU.Exec(cpu.CatKernel, guest.ScaleCost(f.Costs.TxPerPkt, frame.Size), "netfront.tx", f.txInFn)
}

func (f *Netfront) txInTask() {
	frame := f.txIn.Pop()
	f.vif.txQ = append(f.vif.txQ, frame)
	f.scheduleNotify()
}

func (f *Netfront) scheduleNotify() {
	if f.notifyQd {
		return
	}
	f.notifyQd = true
	f.Dom.VCPU.Exec(cpu.CatKernel, f.Costs.NotifyFixed, "netfront.notify", f.notifyFn)
}

func (f *Netfront) notifyTask() {
	f.notifyQd = false
	f.vif.toBack.NotifyFromGuest(f.Dom)
}

// onVirq handles the back end's notification: received packets are
// pulled off the shared ring and delivered up the stack.
func (f *Netfront) onVirq() {
	f.Dom.VCPU.Exec(cpu.CatKernel, f.Costs.IrqFixed, "netfront.virq", f.virqFn)
}

func (f *Netfront) virqTask() {
	frames := f.vif.rxQ
	f.vif.rxQ = f.vif.rxQ[:0]
	for _, fr := range frames {
		f.rxUp.Push(fr)
		f.Dom.VCPU.Exec(cpu.CatKernel, guest.ScaleCost(f.Costs.RxPerPkt, fr.Size), "netfront.rx", f.rxUpFn)
	}
}

func (f *Netfront) rxUpTask() {
	fr := f.rxUp.Pop()
	if f.rxHandler != nil {
		f.rxHandler(fr)
	} else {
		fr.Release()
	}
}

// Vif is one guest's virtual interface: the shared rings between a
// netfront and the netback, plus the event channels in both directions.
type Vif struct {
	Front *Netfront
	back  *Netback
	port  int // bridge port

	txQ []*ether.Frame // guest -> driver domain
	rxQ []*ether.Frame // driver domain -> guest

	toBack   *xen.EventChannel
	toFront  *xen.EventChannel
	notifyQd bool
	visiting bool

	// Per-packet frames moving through driver-domain tasks (FIFO) and
	// the callbacks bound once in AddVif.
	txOut sim.FIFO[*ether.Frame] // toward the bridge/wire
	rxOut sim.FIFO[*ether.Frame] // toward this guest

	visitFn, notifyFn, txOutFn, rxOutFn sim.Fn
}

// Netback is the driver domain's back-end driver plus bridge for one
// physical NIC.
type Netback struct {
	Dom0  *xen.Domain
	Hyp   *xen.Hypervisor
	Costs BackCosts

	Bridge   *ether.Bridge
	physPort int
	phys     guest.NetDevice

	// Frames arriving from the physical driver, queued into the bridge
	// traversal task; wireInFn is bound once in NewNetback.
	wireIn   sim.FIFO[*ether.Frame]
	wireInFn sim.Fn

	PktsToWire   stats.Counter
	PktsToGuests stats.Counter
}

// NewNetback creates the back end bridged onto the physical device.
func NewNetback(hyp *xen.Hypervisor, dom0 *xen.Domain, phys guest.NetDevice, costs BackCosts) *Netback {
	nb := &Netback{Dom0: dom0, Hyp: hyp, Costs: costs, Bridge: ether.NewBridge(), phys: phys}
	nb.wireInFn = hyp.Eng.Bind(nb.wireInTask)
	nb.physPort = nb.Bridge.AddPort(ether.PortFunc(func(f *ether.Frame) {
		nb.PktsToWire.Inc()
		phys.StartXmit(f)
	}))
	// The physical driver's receive path feeds the bridge.
	phys.SetRxHandler(nb.fromWire)
	return nb
}

// AddVif connects a guest's netfront and returns it. The MAC is the
// guest's virtual interface address; the bridge learns it from traffic.
// The per-vif packet callbacks are bound here, once, so the per-packet
// paths below never allocate a capturing closure.
func (nb *Netback) AddVif(gdom *xen.Domain, mac ether.MAC, fc FrontCosts) *Netfront {
	eng := nb.Hyp.Eng
	front := &Netfront{Dom: gdom, Costs: fc, mac: mac}
	front.txInFn = eng.Bind(front.txInTask)
	front.rxUpFn = eng.Bind(front.rxUpTask)
	front.virqFn = eng.Bind(front.virqTask)
	front.notifyFn = eng.Bind(front.notifyTask)
	vif := &Vif{Front: front, back: nb}
	front.vif = vif
	vif.visitFn = eng.Bind(func() { nb.visitTask(vif) })
	vif.notifyFn = eng.Bind(func() { nb.frontNotifyTask(vif) })
	vif.txOutFn = eng.Bind(func() { nb.txOutTask(vif) })
	vif.rxOutFn = eng.Bind(func() { nb.rxOutTask(vif) })
	vif.port = nb.Bridge.AddPort(ether.PortFunc(func(f *ether.Frame) {
		nb.deliverToGuest(vif, f)
	}))
	vif.toBack = nb.Hyp.NewChannel(nb.Dom0, "vif.tx", func() { nb.serveVif(vif) })
	vif.toFront = nb.Hyp.NewChannel(gdom, "vif.rx", front.onVirq)
	return front
}

// serveVif is the back end's response to a guest's transmit
// notification: visit the guest's ring and push every pending packet
// through the bridge. Each packet pays a page-remap (hypervisor) plus
// back-end and bridge processing.
func (nb *Netback) serveVif(v *Vif) {
	if v.visiting {
		return
	}
	v.visiting = true
	nb.Dom0.VCPU.Exec(cpu.CatKernel, nb.Costs.VisitFixed, "netback.visit", v.visitFn)
}

func (nb *Netback) visitTask(v *Vif) {
	v.visiting = false
	budget := nb.Costs.Budget
	if budget <= 0 {
		budget = 16
	}
	n := len(v.txQ)
	if n > budget {
		n = budget
	}
	frames := v.txQ[:n]
	v.txQ = v.txQ[n:]
	for _, f := range frames {
		v.txOut.Push(f)
		nb.Dom0.VCPU.Exec(cpu.CatHyp, nb.Costs.FlipPerPkt, "netback.flip", sim.Fn{})
		nb.Dom0.VCPU.Exec(cpu.CatKernel, guest.ScaleCost(nb.Costs.TxPerPkt, f.Size)+nb.Costs.BridgePerPkt, "netback.tx", v.txOutFn)
	}
	if len(frames) > 0 {
		// Transmit-completion notification back to the guest: the
		// back end interrupts the front end whenever it generates
		// new work for it (§5.2's discussion of guest interrupt
		// rates), so the front end can clean its shared ring.
		nb.scheduleFrontNotify(v)
	}
	if len(v.txQ) > 0 {
		// Budget exhausted: reschedule the remainder.
		nb.serveVif(v)
	}
}

func (nb *Netback) txOutTask(v *Vif) {
	f := v.txOut.Pop()
	nb.Bridge.Input(v.port, f)
}

// fromWire is the physical driver's receive upcall: bridge the frame
// toward whichever guest owns the destination MAC.
func (nb *Netback) fromWire(f *ether.Frame) {
	nb.wireIn.Push(f)
	nb.Dom0.VCPU.Exec(cpu.CatKernel, nb.Costs.BridgePerPkt, "netback.bridge", nb.wireInFn)
}

func (nb *Netback) wireInTask() {
	f := nb.wireIn.Pop()
	nb.Bridge.Input(nb.physPort, f)
}

// deliverToGuest remaps the packet into the guest and notifies it
// (batched).
func (nb *Netback) deliverToGuest(v *Vif, f *ether.Frame) {
	nb.PktsToGuests.Inc()
	// Small packets are copied into the guest rather than page-flipped
	// (Xen's copy-break optimization), skipping the TLB shootdown.
	flip := nb.Costs.FlipRxPerPkt
	if f.Size < guest.SmallFrame {
		flip = nb.Costs.FlipPerPkt / 2
	}
	v.rxOut.Push(f)
	nb.Dom0.VCPU.Exec(cpu.CatHyp, flip, "netback.rxflip", sim.Fn{})
	nb.Dom0.VCPU.Exec(cpu.CatKernel, guest.ScaleCost(nb.Costs.RxPerPkt, f.Size), "netback.rx", v.rxOutFn)
}

func (nb *Netback) rxOutTask(v *Vif) {
	f := v.rxOut.Pop()
	v.rxQ = append(v.rxQ, f)
	nb.scheduleFrontNotify(v)
}

func (nb *Netback) scheduleFrontNotify(v *Vif) {
	if v.notifyQd {
		return
	}
	v.notifyQd = true
	nb.Dom0.VCPU.Exec(cpu.CatKernel, nb.Costs.NotifyFixed, "netback.notify", v.notifyFn)
}

func (nb *Netback) frontNotifyTask(v *Vif) {
	v.notifyQd = false
	v.toFront.NotifyFromGuest(nb.Dom0)
}
