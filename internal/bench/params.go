// Package bench assembles the three machine topologies the paper
// evaluates — native Linux, Xen with software I/O virtualization, and
// Xen with CDNA — runs the multi-connection benchmark over them, and
// regenerates every table and figure of the evaluation (§5).
package bench

import (
	"cdna/internal/backend"
	"cdna/internal/bus"
	"cdna/internal/cpu"
	"cdna/internal/guest"
	"cdna/internal/intelnic"
	"cdna/internal/ricenic"
	"cdna/internal/sim"
	"cdna/internal/xen"
)

// Calibration carries every cost constant of the model. Per-packet
// constants are derived from the paper's own single-guest tables: at a
// measured rate of R packets/s, a component consuming fraction f of the
// CPU costs f/R seconds per packet. Wire packets carry 1448-byte
// payloads in 1538-byte line slots, so the operating points are:
//
//	Xen/Intel   tx 1602 Mb/s = 138.3k pkt/s   rx 1112 Mb/s =  96.0k pkt/s
//	Xen/RiceNIC tx 1674 Mb/s = 144.5k pkt/s   rx 1075 Mb/s =  92.8k pkt/s
//	CDNA        tx 1867 Mb/s = 161.2k pkt/s   rx 1874 Mb/s = 161.8k pkt/s
//	Native      tx 5126 Mb/s = 442.6k pkt/s   rx 3629 Mb/s = 313.3k pkt/s
//
// Fixed per-event costs (per interrupt, per hypercall batch, per ring
// visit, per domain switch) are chosen so the scaling behaviour of
// Figures 3–4 and the protection deltas of Table 4 emerge from
// mechanism. EXPERIMENTS.md records how close the reproduction lands.
type Calibration struct {
	CPU cpu.Params
	Hyp xen.Params
	Bus bus.Params

	// StackTSO is the paravirtualized guest stack when the NIC offloads
	// segmentation (Intel rows); StackNoTSO is the RiceNIC stack (no TSO
	// support, §5.1); StackNative is unmodified Linux on bare hardware
	// (Table 1's baseline).
	StackTSO    guest.StackCosts
	StackNoTSO  guest.StackCosts
	StackNative guest.StackCosts

	// NativeDrv drives the Intel NIC (native host or driver domain).
	NativeDrv guest.DriverCosts
	// CDNADrv drives one RiceNIC context (guest under CDNA, or the
	// driver domain in the Xen/RiceNIC configuration).
	CDNADrv guest.DriverCosts
	// DirectPerDesc is the guest cost of writing a descriptor itself
	// when protection is off or an IOMMU is present (Table 4).
	DirectPerDesc sim.Time

	Front backend.FrontCosts
	Back  backend.BackCosts

	Intel intelnic.Params
	Rice  ricenic.Params

	// Background driver-domain activity (housekeeping daemons): the
	// residual 0.2–0.8% driver-domain time in all configurations.
	BackgroundPeriod sim.Time
	BackgroundKernel sim.Time
	BackgroundUser   sim.Time
}

// Default returns the calibrated model. The derivations:
//
//   - CDNA guest OS at 37.8% of 161.2k pkt/s ⇒ ~2.35 us/pkt across
//     stack (≈1.15), CDNA driver (≈0.55), amortized per-interrupt fixed
//     work, and the ack receive path at half the data rate.
//   - Xen/Intel guest OS at 40.7% of 138.3k ⇒ ~2.94 us/pkt: TSO stack
//     (≈0.75) + netfront (≈1.40) + ack path; driver domain at 36.5% ⇒
//     ~2.64 us/pkt across netback, bridge and the native driver.
//   - Hypervisor: flips ≈0.6 us each on the PV path; CDNA validation
//     ≈0.30 us/descriptor (≈0.18 descriptor + ≈0.12 page) so that
//     disabling protection recovers ≈8% of the CPU, matching Table 4's
//     hyp 10.2%→1.9% and idle +9.6%.
//   - Interrupt coalescing: Intel ≈125 us (≈7.4–11k intr/s at the
//     paper's rates), RiceNIC ≈140 us across two NICs (≈13.7k guest
//     intr/s under CDNA).
func Default() Calibration {
	us := func(f float64) sim.Time { return sim.Time(f * 1000) }
	c := Calibration{
		CPU: cpu.Params{
			SwitchCost:      us(0.7),
			Slice:           300 * sim.Microsecond,
			CacheRefillUnit: us(3.5),
			CacheRefillCap:  us(28),
		},
		Hyp: xen.Params{
			ISRCost:       us(0.9),
			BitvecBase:    us(0.3),
			BitvecPerCtx:  us(0.2),
			VirqSend:      us(0.45),
			VirqDeliver:   us(0.35),
			HypercallBase: us(0.55),
			CDNAPerDesc:   us(0.18),
			CDNAPerPage:   us(0.12),
			FlipCost:      us(0.85),
			TickPeriod:    10 * sim.Millisecond,
			TickCost:      us(2),
			TickISR:       us(0.5),
		},
		Bus: bus.Params{BytesPerSec: 420e6, PerTransfer: 600},

		// Flow lifecycle: ~15us to establish a connection (socket +
		// handshake processing) and ~8us to tear one down, the usual
		// order for a Linux accept/close path. Only churn-style
		// workloads exercise these.
		StackTSO: guest.StackCosts{
			TxData: us(0.75), RxData: us(1.50),
			TxAck: us(0.40), RxAck: us(0.35),
			UserPerData: us(0.045), UserBatch: 16,
			FlowSetup: us(15), FlowTeardown: us(8),
		},
		StackNoTSO: guest.StackCosts{
			TxData: us(1.15), RxData: us(1.55),
			TxAck: us(0.40), RxAck: us(0.35),
			UserPerData: us(0.045), UserBatch: 16,
			FlowSetup: us(15), FlowTeardown: us(8),
		},

		StackNative: guest.StackCosts{
			TxData: us(1.05), RxData: us(1.70),
			TxAck: us(0.40), RxAck: us(0.35),
			UserPerData: us(0.045), UserBatch: 16,
			FlowSetup: us(15), FlowTeardown: us(8),
		},

		NativeDrv: guest.DriverCosts{
			TxPerPkt: us(0.60), RxPerPkt: us(1.00),
			BatchFixed: us(0.60), IrqFixed: us(1.5), PIO: us(0.45),
		},
		CDNADrv: guest.DriverCosts{
			TxPerPkt: us(0.55), RxPerPkt: us(0.85),
			BatchFixed: us(0.50), IrqFixed: us(1.2), PIO: us(0.45),
		},
		DirectPerDesc: us(0.08),

		Front: backend.FrontCosts{
			TxPerPkt: us(1.35), RxPerPkt: us(1.20),
			NotifyFixed: us(0.30), IrqFixed: us(1.5),
		},
		Back: backend.BackCosts{
			VisitFixed: us(2.2),
			TxPerPkt:   us(0.55), RxPerPkt: us(1.75),
			BridgePerPkt: us(0.35),
			FlipPerPkt:   us(0.95),
			FlipRxPerPkt: us(2.2),
			NotifyFixed:  us(0.30),
			Budget:       16,
		},

		Intel: intelnic.DefaultParams(),
		Rice:  ricenic.DefaultParams(),

		BackgroundPeriod: sim.Millisecond,
		BackgroundKernel: us(2),
		BackgroundUser:   us(3),
	}
	c.Intel.CoalesceDelay = 250 * sim.Microsecond
	c.Intel.CoalescePkts = 64
	c.Rice.CoalesceDelay = 500 * sim.Microsecond
	c.Rice.RxCoalesceDelay = 1500 * sim.Microsecond
	c.Rice.CoalescePkts = 12
	c.Rice.RxCoalescePkts = 64
	return c
}
