// Package guest models the operating system inside a domain: a TCP-like
// network stack with calibrated per-packet costs, the benchmark
// application's user-time charges, and the three device drivers the
// evaluation needs — the native driver for a conventional NIC (used by
// native Linux and by Xen's driver domain), the paravirtual front-end
// (its back-end half lives in internal/backend), and the CDNA guest
// driver (§3).
package guest

import (
	"cdna/internal/cpu"
	"cdna/internal/ether"
	"cdna/internal/sim"
	"cdna/internal/stats"
	"cdna/internal/transport"
)

// SmallFrame is the frame-size threshold (bytes) under which drivers
// charge ScaleSmall of their per-packet cost: pure acks involve no
// payload copy/remap work.
const SmallFrame = 200

// ScaleCost halves a per-packet driver cost for small (ack-sized)
// frames.
func ScaleCost(t sim.Time, frameSize int) sim.Time {
	if frameSize < SmallFrame {
		return t / 2
	}
	return t
}

// qdiscLimit bounds a driver's transmit backlog (Linux's default txqueuelen
// is 1000 per device; the driver domain aggregates many guests, so the
// shared-device limit is generous).
const qdiscLimit = 4096

// NetDevice is the driver-side contract the stack binds to.
type NetDevice interface {
	MAC() ether.MAC
	// StartXmit queues a frame for transmission; the driver charges its
	// own CPU costs.
	StartXmit(f *ether.Frame)
	// SetRxHandler installs the stack's receive upcall, invoked in the
	// owning domain's context after driver per-packet costs.
	SetRxHandler(h func(f *ether.Frame))
}

// StackCosts are the network-stack CPU costs per wire packet, plus the
// per-flow connection lifecycle costs churn-style workloads exercise.
type StackCosts struct {
	TxData      sim.Time // kernel: segment a data packet down to the driver
	RxData      sim.Time // kernel: deliver a data packet up to the socket
	TxAck       sim.Time // kernel: generate a pure ack
	RxAck       sim.Time // kernel: process a received ack
	UserPerData sim.Time // user: application copy per data packet
	UserBatch   int      // data packets per user-time charge

	// FlowSetup/FlowTeardown are the kernel costs of establishing and
	// tearing down one connection (socket allocation, handshake
	// processing, fd churn). Charged once per short-lived flow by the
	// workload layer, so connection churn is not free.
	FlowSetup    sim.Time
	FlowTeardown sim.Time
}

// Stack is a guest OS network stack bound to one or more devices.
type Stack struct {
	Dom   *cpu.Domain
	Costs StackCosts

	// Arena, when set by the machine builder, supplies pooled transmit
	// frames (it must belong to the stack's engine). Nil falls back to
	// plain heap allocation with identical behavior.
	Arena *ether.Arena

	userAcc   int
	Delivered stats.Counter // data packets handed to transport
	// Foreign counts unicast frames dropped at the device boundary
	// because their destination MAC is some other station's: a fabric
	// switch floods unicast to unlearned MACs, so endpoints see frames
	// that were never theirs and must filter them exactly like a
	// non-promiscuous NIC — not dispatch them up the transport layer.
	Foreign stats.Counter

	// Segments queued into the kernel's receive path; rxFn and rxAckFn
	// (one callback, bound once per name) pop the segment their task
	// corresponds to. Domain task queues are
	// FIFO, so push/pop order matches and the per-packet capturing
	// closure disappears.
	rxQ           sim.FIFO[*transport.Segment]
	rxFn, rxAckFn sim.Fn

	// Names of the tasks that only cost time.
	flowOpenFn, flowCloseFn, appCopyFn sim.Fn
}

// NewStack creates a stack on the domain's vCPU.
func NewStack(dom *cpu.Domain, costs StackCosts) *Stack {
	if costs.UserBatch <= 0 {
		costs.UserBatch = 16
	}
	s := &Stack{Dom: dom, Costs: costs}
	eng := dom.Engine()
	s.rxFn = eng.Bind("stack.rx", s.deliverTask)
	s.rxAckFn = eng.Bind("stack.rxack", s.deliverTask)
	s.flowOpenFn = eng.Bind("stack.flowopen", nil)
	s.flowCloseFn = eng.Bind("stack.flowclose", nil)
	s.appCopyFn = eng.Bind("app.copy", nil)
	return s
}

// AttachDevice binds a device's receive path into the stack. Frames
// whose destination is neither the device's MAC nor broadcast are
// dropped here (counted in Foreign) before any stack cost is charged:
// they are flood copies the fabric sprayed at every port, filtered by
// address exactly as a non-promiscuous endpoint device would.
func (s *Stack) AttachDevice(dev NetDevice) {
	dev.SetRxHandler(func(f *ether.Frame) {
		if f.Dst != dev.MAC() && !f.Dst.IsBroadcast() {
			s.Foreign.Inc()
			f.Release()
			return
		}
		s.deliver(f)
	})
}

// ChargeFlowSetup charges one connection establishment to the stack's
// domain (the workload layer's per-flow open hook).
func (s *Stack) ChargeFlowSetup() {
	if s.Costs.FlowSetup > 0 {
		s.Dom.Exec(cpu.CatKernel, s.Costs.FlowSetup, s.flowOpenFn)
	}
}

// ChargeFlowTeardown charges one connection teardown to the stack's
// domain (the workload layer's per-flow close hook).
func (s *Stack) ChargeFlowTeardown() {
	if s.Costs.FlowTeardown > 0 {
		s.Dom.Exec(cpu.CatKernel, s.Costs.FlowTeardown, s.flowCloseFn)
	}
}

// chargeUser batches application time so the task count stays sane.
func (s *Stack) chargeUser() {
	s.userAcc++
	if s.userAcc >= s.Costs.UserBatch {
		n := s.userAcc
		s.userAcc = 0
		s.Dom.Exec(cpu.CatUser, sim.Time(n)*s.Costs.UserPerData, s.appCopyFn)
	}
}

// sender is the per-(device, peer) transmit adapter behind Sender: one
// segment FIFO plus the task callback bound at creation, once per name
// (data, ack), so queuing a segment into the kernel allocates no
// closure.
type sender struct {
	s         *Stack
	dev       NetDevice
	dst       ether.MAC
	q         sim.FIFO[*transport.Segment]
	fn, ackFn sim.Fn
}

// Sender returns a transport send function that pushes segments out
// through dev toward dstMAC, charging stack transmit costs.
func (s *Stack) Sender(dev NetDevice, dstMAC ether.MAC) func(*transport.Segment) {
	sn := &sender{s: s, dev: dev, dst: dstMAC}
	eng := s.Dom.Engine()
	sn.fn = eng.Bind("stack.tx", sn.xmitTask)
	sn.ackFn = eng.Bind("stack.txack", sn.xmitTask)
	return sn.send
}

func (sn *sender) send(seg *transport.Segment) {
	cost, fn := sn.s.Costs.TxData, sn.fn
	if seg.Ack {
		cost, fn = sn.s.Costs.TxAck, sn.ackFn
	}
	sn.q.Push(seg)
	sn.s.Dom.Exec(cpu.CatKernel, cost, fn)
}

func (sn *sender) xmitTask() {
	seg := sn.q.Pop()
	if !seg.Ack {
		sn.s.chargeUser()
	}
	// The segment's creation reference transfers into the frame: the
	// frame owns its payload and releases it when freed.
	var f *ether.Frame
	if a := sn.s.Arena; a != nil {
		f = a.Get(sn.dev.MAC(), sn.dst, seg.FrameBytes(), seg)
	} else {
		f = &ether.Frame{
			Src: sn.dev.MAC(), Dst: sn.dst,
			Size: seg.FrameBytes(), Payload: seg,
		}
	}
	sn.dev.StartXmit(f)
}

// deliver is the receive upcall from a driver.
func (s *Stack) deliver(f *ether.Frame) {
	seg, ok := f.Payload.(*transport.Segment)
	if !ok {
		f.Release()
		return // opaque/garbage frame (corruption demos): dropped by the stack
	}
	cost, fn := s.Costs.RxData, s.rxFn
	if seg.Ack {
		cost, fn = s.Costs.RxAck, s.rxAckFn
	}
	// The rx queue outlives the frame: retain the segment before the
	// frame (which owns the payload reference) can be freed.
	seg.Retain()
	s.rxQ.Push(seg)
	f.Release()
	s.Dom.Exec(cpu.CatKernel, cost, fn)
}

func (s *Stack) deliverTask() {
	seg := s.rxQ.Pop()
	if !seg.Ack {
		s.chargeUser()
		s.Delivered.Inc()
	}
	transport.Dispatch(seg)
	seg.Release()
}
