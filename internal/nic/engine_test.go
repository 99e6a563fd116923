package nic

import (
	"testing"

	"cdna/internal/bus"
	"cdna/internal/ether"
	"cdna/internal/mem"
	"cdna/internal/ring"
	"cdna/internal/sim"
)

const guest = mem.Dom0 + 1

type rig struct {
	eng  *sim.Engine
	m    *mem.Memory
	e    *Engine
	tx   *ring.Ring
	rx   *ring.Ring
	qid  int
	sent []*ether.Frame
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.New()
	m := mem.New()
	b := bus.New(eng, bus.DefaultParams())
	out := ether.NewPipe(eng, 1.0, 0)
	r := &rig{eng: eng, m: m}
	out.Connect(ether.PortFunc(func(f *ether.Frame) { r.sent = append(r.sent, f) }))
	r.e = NewEngine(eng, b, m, out, DefaultParams())
	var err error
	r.tx, err = ring.New("tx", ring.DefaultLayout, m.AllocRun(guest, 1).Base(), 256)
	if err != nil {
		t.Fatal(err)
	}
	r.rx, err = ring.New("rx", ring.DefaultLayout, m.AllocRun(guest, 1).Base(), 256)
	if err != nil {
		t.Fatal(err)
	}
	r.qid = r.e.AddQueue(r.tx, r.rx)
	return r
}

// postTx writes n tx descriptors directly (driver-style) and kicks.
func (r *rig) postTx(t *testing.T, frames map[uint32]*ether.Frame, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		idx := r.tx.Prod()
		buf := r.m.AllocRun(guest, 1)
		d := ring.Desc{Addr: buf.Base(), Len: 1514, Flags: ring.FlagTx | ring.FlagValid}
		if err := r.tx.WriteDesc(r.m, guest, idx, d); err != nil {
			t.Fatal(err)
		}
		if frames != nil {
			frames[idx] = &ether.Frame{Size: 1514, Dst: ether.MakeMAC(9, 9)}
		}
		if err := r.tx.Publish(1); err != nil {
			t.Fatal(err)
		}
	}
	r.e.KickTx(r.qid, r.tx.Prod())
}

func (r *rig) postRx(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		idx := r.rx.Prod()
		buf := r.m.AllocRun(guest, 1)
		d := ring.Desc{Addr: buf.Base(), Len: 1514, Flags: ring.FlagValid}
		if err := r.rx.WriteDesc(r.m, guest, idx, d); err != nil {
			t.Fatal(err)
		}
		if err := r.rx.Publish(1); err != nil {
			t.Fatal(err)
		}
	}
	r.e.KickRx(r.qid, r.rx.Prod())
}

func TestTxPath(t *testing.T) {
	r := newRig(t)
	frames := map[uint32]*ether.Frame{}
	completions := 0
	r.e.Hooks = Hooks{
		LookupTx:     func(qid int, idx uint32) *ether.Frame { return frames[idx] },
		OnCompletion: func(qid int, tx bool) { completions++ },
	}
	r.postTx(t, frames, 10)
	r.eng.Run(10 * sim.Millisecond)
	if len(r.sent) != 10 {
		t.Fatalf("transmitted %d frames, want 10", len(r.sent))
	}
	if completions != 10 {
		t.Fatalf("completions = %d", completions)
	}
	if r.tx.Cons() != 10 {
		t.Fatalf("consumer writeback = %d", r.tx.Cons())
	}
	if r.e.TxPackets.Total() != 10 {
		t.Fatalf("TxPackets = %d", r.e.TxPackets.Total())
	}
}

func TestTxPacedAtLineRate(t *testing.T) {
	r := newRig(t)
	frames := map[uint32]*ether.Frame{}
	r.e.Hooks = Hooks{LookupTx: func(qid int, idx uint32) *ether.Frame { return frames[idx] }}
	r.postTx(t, frames, 200)
	r.eng.Run(sim.Millisecond)
	// Line rate: ~81.3 frames/ms; pacing must keep us near it, never above.
	if len(r.sent) > 84 {
		t.Fatalf("sent %d frames in 1ms: exceeds line rate", len(r.sent))
	}
	if len(r.sent) < 70 {
		t.Fatalf("sent %d frames in 1ms: wire underutilized", len(r.sent))
	}
}

func TestRxPath(t *testing.T) {
	r := newRig(t)
	var delivered []*ether.Frame
	r.e.Hooks = Hooks{
		OnRxDelivered: func(qid int, f *ether.Frame, d ring.Desc) { delivered = append(delivered, f) },
	}
	r.postRx(t, 32)
	r.eng.Run(sim.Millisecond) // let prefetch complete
	for i := 0; i < 5; i++ {
		r.e.Receive(&ether.Frame{Size: 1514, Dst: ether.MakeMAC(1, 1)})
	}
	r.eng.Run(10 * sim.Millisecond)
	if len(delivered) != 5 {
		t.Fatalf("delivered %d, want 5", len(delivered))
	}
	if r.rx.Cons() != 5 {
		t.Fatalf("rx consumer = %d", r.rx.Cons())
	}
}

func TestRxDropWithoutBuffers(t *testing.T) {
	r := newRig(t)
	r.e.Hooks = Hooks{}
	r.e.Receive(&ether.Frame{Size: 1514})
	r.eng.Run(sim.Millisecond)
	if r.e.RxDrops.Total() != 1 || r.e.RxPackets.Total() != 0 {
		t.Fatalf("drops=%d rx=%d", r.e.RxDrops.Total(), r.e.RxPackets.Total())
	}
}

func TestRxDemuxDrop(t *testing.T) {
	r := newRig(t)
	r.e.Hooks = Hooks{RxQueueFor: func(dst ether.MAC) int { return -1 }}
	r.postRx(t, 8)
	r.eng.Run(sim.Millisecond)
	r.e.Receive(&ether.Frame{Size: 1514, Dst: ether.MakeMAC(3, 3)})
	r.eng.Run(sim.Millisecond)
	if r.e.RxDrops.Total() != 1 {
		t.Fatalf("drops = %d", r.e.RxDrops.Total())
	}
}

func TestSeqCheckFaultFreezesQueue(t *testing.T) {
	r := newRig(t)
	var fault *ring.Desc
	calls := 0
	r.e.Hooks = Hooks{
		CheckTxSeq: func(qid int, d ring.Desc) bool {
			calls++
			return d.Seq == uint32(calls-1) // expect 0,1,2,...
		},
		OnFault: func(qid int, tx bool, d ring.Desc) { fault = &d },
	}
	// Write three descriptors with seqs 0, 1, 7 (7 is wrong).
	for i, seq := range []uint32{0, 1, 7} {
		buf := r.m.AllocRun(guest, 1)
		d := ring.Desc{Addr: buf.Base(), Len: 100, Seq: seq}
		r.tx.WriteDesc(r.m, guest, uint32(i), d)
		r.tx.Publish(1)
	}
	r.e.KickTx(r.qid, 3)
	r.eng.Run(10 * sim.Millisecond)
	if fault == nil {
		t.Fatal("no fault reported")
	}
	if fault.Seq != 7 {
		t.Fatalf("fault on seq %d", fault.Seq)
	}
	if r.e.QueueActive(r.qid) {
		t.Fatal("queue still active after fault")
	}
	if r.e.Faults.Total() != 1 {
		t.Fatalf("Faults = %d", r.e.Faults.Total())
	}
	// At most the two valid descriptors were transmitted.
	if len(r.sent) > 2 {
		t.Fatalf("sent %d frames after fault", len(r.sent))
	}
}

func TestDetachedQueueIgnoresKicksAndFrames(t *testing.T) {
	r := newRig(t)
	r.e.Hooks = Hooks{}
	r.postRx(t, 8)
	r.eng.Run(sim.Millisecond)
	r.e.DetachQueue(r.qid)
	r.e.Receive(&ether.Frame{Size: 100})
	r.e.KickTx(r.qid, 5)
	r.eng.Run(sim.Millisecond)
	if r.e.RxDrops.Total() != 1 {
		t.Fatal("detached queue must drop frames")
	}
	if len(r.sent) != 0 {
		t.Fatal("detached queue transmitted")
	}
}

func TestStaleDescriptorWithoutSeqCheckTransmitsGarbage(t *testing.T) {
	// Without sequence checking (protection off), a forged producer
	// index makes the NIC read stale ring bytes and transmit garbage —
	// the vulnerability §3.3 closes.
	r := newRig(t)
	r.e.Hooks = Hooks{LookupTx: func(qid int, idx uint32) *ether.Frame { return nil }}
	buf := r.m.AllocRun(guest, 1)
	d := ring.Desc{Addr: buf.Base(), Len: 777}
	r.tx.WriteDesc(r.m, guest, 0, d)
	// Forge: kick producer=1 without publishing through the ring API.
	r.e.KickTx(r.qid, 1)
	r.eng.Run(10 * sim.Millisecond)
	if len(r.sent) != 1 || r.sent[0].Size != 777 {
		t.Fatalf("garbage frame not transmitted: %v", r.sent)
	}
}

func TestMultiQueueFairness(t *testing.T) {
	eng := sim.New()
	m := mem.New()
	b := bus.New(eng, bus.DefaultParams())
	out := ether.NewPipe(eng, 1.0, 0)
	perQueue := map[int]int{}
	e := NewEngine(eng, b, m, out, DefaultParams())
	frames := map[[2]uint32]*ether.Frame{}
	e.Hooks = Hooks{LookupTx: func(qid int, idx uint32) *ether.Frame { return frames[[2]uint32{uint32(qid), idx}] }}
	out.Connect(ether.PortFunc(func(f *ether.Frame) {
		perQueue[int(f.Src[5])]++
	}))
	const nQ = 4
	for qi := 0; qi < nQ; qi++ {
		tx, _ := ring.New("tx", ring.DefaultLayout, m.AllocRun(guest, 1).Base(), 256)
		rx, _ := ring.New("rx", ring.DefaultLayout, m.AllocRun(guest, 1).Base(), 256)
		qid := e.AddQueue(tx, rx)
		for i := 0; i < 100; i++ {
			buf := m.AllocRun(guest, 1)
			d := ring.Desc{Addr: buf.Base(), Len: 1514}
			tx.WriteDesc(m, guest, uint32(i), d)
			tx.Publish(1)
			frames[[2]uint32{uint32(qid), uint32(i)}] = &ether.Frame{Size: 1514, Src: ether.MAC{5: byte(qid)}}
		}
		e.KickTx(qid, 100)
	}
	// Run for ~2ms: wire fits ~163 frames; fairness => ~40 each.
	eng.Run(2 * sim.Millisecond)
	for qi := 0; qi < nQ; qi++ {
		if perQueue[qi] < 30 || perQueue[qi] > 55 {
			t.Fatalf("unfair interleave: %v", perQueue)
		}
	}
}

func TestServerFIFO(t *testing.T) {
	eng := sim.New()
	s := NewServer(eng)
	var order []int
	s.Do(10, sim.RawFn(func() { order = append(order, 1) }))
	s.Do(10, sim.RawFn(func() { order = append(order, 2) }))
	if s.Backlog() != 20 {
		t.Fatalf("Backlog = %v", s.Backlog())
	}
	eng.Run(sim.Second)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	if s.Backlog() != 0 {
		t.Fatal("backlog after drain")
	}
}

func TestCoalescerThreshold(t *testing.T) {
	eng := sim.New()
	fires := 0
	c := NewCoalescer(eng, 100*sim.Microsecond, 4, func() { fires++ })
	for i := 0; i < 8; i++ {
		c.Event()
	}
	if fires != 2 {
		t.Fatalf("fires = %d, want 2 (threshold)", fires)
	}
	if c.Pending() != 0 {
		t.Fatal("pending after fire")
	}
}

func TestCoalescerTimer(t *testing.T) {
	eng := sim.New()
	var fireAt sim.Time
	c := NewCoalescer(eng, 100*sim.Microsecond, 1000, func() { fireAt = eng.Now() })
	eng.After(10*sim.Microsecond, func() { c.Event() })
	eng.Run(sim.Millisecond)
	if fireAt != 110*sim.Microsecond {
		t.Fatalf("fired at %v, want 110us", fireAt)
	}
}

func TestCoalescerTimerNotRearmedBySecondEvent(t *testing.T) {
	eng := sim.New()
	var fireAt sim.Time
	fires := 0
	c := NewCoalescer(eng, 100*sim.Microsecond, 1000, func() { fires++; fireAt = eng.Now() })
	eng.After(10*sim.Microsecond, func() { c.Event() })
	eng.After(60*sim.Microsecond, func() { c.Event() })
	eng.Run(sim.Millisecond)
	if fires != 1 || fireAt != 110*sim.Microsecond {
		t.Fatalf("fires=%d at %v; the delay must run from the FIRST pending event", fires, fireAt)
	}
}

func TestCoalescerZeroPktsClamped(t *testing.T) {
	eng := sim.New()
	fires := 0
	c := NewCoalescer(eng, sim.Microsecond, 0, func() { fires++ })
	c.Event()
	if fires != 1 {
		t.Fatal("pkts<=0 must clamp to 1 (immediate fire)")
	}
}
