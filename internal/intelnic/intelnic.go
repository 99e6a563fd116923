// Package intelnic models a conventional server NIC in the mold of the
// Intel Pro/1000 MT the paper uses as its software-virtualization
// baseline (§5.1): one transmit and one receive descriptor ring, mailbox
// (doorbell) kicks, interrupt coalescing, and a consumer-index writeback
// DMA before each interrupt. It has exactly one owner — the driver
// domain under Xen, or the host OS natively — and no notion of contexts;
// multiplexing guests onto it is software's problem, which is the entire
// point of the paper's comparison.
package intelnic

import (
	"cdna/internal/bus"
	"cdna/internal/ether"
	"cdna/internal/mem"
	"cdna/internal/nic"
	"cdna/internal/ring"
	"cdna/internal/sim"
)

// Params configures the device.
type Params struct {
	Engine        nic.Params
	CoalesceDelay sim.Time
	CoalescePkts  int
	// TSO marks hardware TCP segmentation offload support; it does not
	// change the device model (segments arrive pre-cut in the
	// simulation) but drivers lower their per-packet CPU costs when it
	// is available, as the paper's configurations did (§5.1).
	TSO bool
}

// DefaultParams mirrors a tuned e1000: interrupt throttling around
// 7-8k/s at load.
func DefaultParams() Params {
	return Params{
		Engine: nic.Params{
			ProcTx:     300 * sim.Nanosecond,
			ProcRx:     400 * sim.Nanosecond,
			FetchBatch: 32,
			RxPrefetch: 64,
			TxWindow:   3,
			RxBufBytes: 128 << 10,
		},
		CoalesceDelay: 125 * sim.Microsecond,
		CoalescePkts:  40,
		TSO:           true,
	}
}

// NIC is the device.
type NIC struct {
	Name   string
	MAC    ether.MAC
	Params Params
	E      *nic.Engine
	Coal   *nic.Coalescer

	raiseIRQ func()
	lookupTx func(idx uint32) *ether.Frame

	writebackDoneFn sim.Fn // bound once: raise the IRQ after the writeback DMA

	// rxDone accumulates completed receive frames between interrupts;
	// the driver's IRQ task drains the burst in one swap (previously a
	// fresh slice per interrupt).
	rxDone sim.DoubleBuf[*ether.Frame]
}

// New creates the NIC with its wire attachment.
func New(eng *sim.Engine, b *bus.Bus, m *mem.Memory, out *ether.Pipe, p Params, mac ether.MAC) *NIC {
	n := &NIC{Name: "intel", MAC: mac, Params: p}
	n.writebackDoneFn = eng.Bind("bus.dma:intel.writeback", func() {
		if n.raiseIRQ != nil {
			n.raiseIRQ()
		}
	})
	n.E = nic.NewEngine(eng, b, m, out, p.Engine)
	n.Coal = nic.NewCoalescer(eng, p.CoalesceDelay, p.CoalescePkts, func() {
		// Consumer-index writeback then the physical interrupt.
		b.DMA(8, n.writebackDoneFn)
	})
	n.E.Hooks = nic.Hooks{
		LookupTx: func(qid int, idx uint32) *ether.Frame {
			if n.lookupTx != nil {
				return n.lookupTx(idx)
			}
			return nil
		},
		// Conventional NIC in promiscuous/bridged operation: all frames
		// land in the single receive queue.
		RxQueueFor: func(dst ether.MAC) int { return 0 },
		OnRxDelivered: func(qid int, f *ether.Frame, d ring.Desc) {
			n.rxDone.Append(f)
		},
		OnCompletion: func(qid int, tx bool) { n.Coal.Event() },
	}
	return n
}

// AttachRings installs the driver's descriptor rings.
func (n *NIC) AttachRings(tx, rx *ring.Ring) {
	n.E.AddQueue(tx, rx)
}

// SetDriver installs the driver's tx frame lookup.
func (n *NIC) SetDriver(lookup func(idx uint32) *ether.Frame, raiseIRQ func()) {
	n.lookupTx = lookup
	if raiseIRQ != nil {
		n.raiseIRQ = raiseIRQ
	}
}

// SetIRQ installs the physical interrupt line (wired by the machine
// builder: directly to the driver natively, through the hypervisor
// under Xen).
func (n *NIC) SetIRQ(raiseIRQ func()) { n.raiseIRQ = raiseIRQ }

// KickTx is the transmit doorbell (the PIO cost is charged by the
// driver before calling).
func (n *NIC) KickTx(prod uint32) { n.E.KickTx(0, prod) }

// KickRx is the receive doorbell.
func (n *NIC) KickRx(prod uint32) { n.E.KickRx(0, prod) }

// DrainRx hands the driver all completed receive frames. The returned
// slice is recycled at the drain after next; the driver's IRQ task
// consumes it synchronously.
func (n *NIC) DrainRx() []*ether.Frame {
	return n.rxDone.Drain()
}

// RxPending returns queued, undrained receive completions.
func (n *NIC) RxPending() int { return n.rxDone.Len() }

// Receive implements ether.Port for the wire side.
func (n *NIC) Receive(f *ether.Frame) { n.E.Receive(f) }
