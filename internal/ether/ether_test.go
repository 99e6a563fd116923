package ether

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"cdna/internal/sim"
)

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0x00, 0x00, 0x01, 0x00, 0x02}
	if m.String() != "02:00:00:01:00:02" {
		t.Fatalf("String = %s", m)
	}
}

func TestMakeMACUnique(t *testing.T) {
	seen := map[MAC]bool{}
	for g := 0; g < 4; g++ {
		for i := 0; i < 32; i++ {
			m := MakeMAC(g, i)
			if seen[m] {
				t.Fatalf("duplicate MAC %s", m)
			}
			if m.IsBroadcast() {
				t.Fatalf("generated MAC %s is multicast", m)
			}
			seen[m] = true
		}
	}
}

func TestBroadcastDetection(t *testing.T) {
	if !Broadcast.IsBroadcast() {
		t.Fatal("Broadcast must be broadcast")
	}
	if (MAC{0x02}).IsBroadcast() {
		t.Fatal("locally administered unicast misdetected")
	}
}

func TestWireBytesPadding(t *testing.T) {
	small := &Frame{Size: 20}
	if small.WireBytes() != MinFrame+WireOverhead {
		t.Fatalf("small frame wire bytes = %d", small.WireBytes())
	}
	full := &Frame{Size: HeaderBytes + MTU}
	if full.WireBytes() != 1514+WireOverhead {
		t.Fatalf("full frame wire bytes = %d", full.WireBytes())
	}
}

func TestMaxPayloadMbps(t *testing.T) {
	// 1448B TCP payload in a 1514B frame on GbE: the classic ~941 Mb/s.
	got := MaxPayloadMbps(1.0, 1514, 1448)
	if math.Abs(got-941.5) > 1.0 {
		t.Fatalf("MaxPayloadMbps = %v, want ~941.5", got)
	}
}

func TestPipeSerialization(t *testing.T) {
	eng := sim.New()
	p := NewPipe(eng, 1.0, 0) // 1 Gb/s = 0.125 B/ns
	var times []sim.Time
	p.Connect(PortFunc(func(f *Frame) { times = append(times, eng.Now()) }))
	f := &Frame{Size: 1514}
	p.Send(f)
	p.Send(f)
	eng.Run(sim.Second)
	slot := sim.Time(float64(1538) / 0.125)
	if len(times) != 2 || times[0] != slot || times[1] != 2*slot {
		t.Fatalf("delivery times = %v, want %v and %v", times, slot, 2*slot)
	}
}

func TestPipePropagationDelay(t *testing.T) {
	eng := sim.New()
	p := NewPipe(eng, 1.0, 500*sim.Nanosecond)
	var at sim.Time
	p.Connect(PortFunc(func(f *Frame) { at = eng.Now() }))
	p.Send(&Frame{Size: 1514})
	eng.Run(sim.Second)
	want := sim.Time(float64(1538)/0.125) + 500
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestPipeThroughputCeiling(t *testing.T) {
	eng := sim.New()
	p := NewPipe(eng, 1.0, 0)
	delivered := 0
	p.Connect(PortFunc(func(f *Frame) { delivered += f.Size - HeaderBytes - 52 }))
	// Offer 2x line rate for 10ms; delivery is capped at line rate.
	var send func()
	n := 0
	send = func() {
		p.Send(&Frame{Size: 1514})
		n++
		if n < 2000 {
			eng.After(6*sim.Microsecond, send)
		}
	}
	eng.After(1, send)
	eng.Run(10 * sim.Millisecond)
	mbps := float64(delivered) * 8 / 1e6 / 0.010
	if mbps > 945 {
		t.Fatalf("throughput %v Mb/s exceeds line rate ceiling", mbps)
	}
	if mbps < 900 {
		t.Fatalf("throughput %v Mb/s too low for saturated pipe", mbps)
	}
}

func TestPipeBacklogAndNextFree(t *testing.T) {
	eng := sim.New()
	p := NewPipe(eng, 1.0, 0)
	p.Connect(PortFunc(func(f *Frame) {}))
	if p.Backlog() != 0 || p.NextFree() != 0 {
		t.Fatal("fresh pipe should be free")
	}
	p.Send(&Frame{Size: 1514})
	if p.Backlog() == 0 {
		t.Fatal("busy pipe must report backlog")
	}
	if p.NextFree() != eng.Now()+p.Backlog() {
		t.Fatal("NextFree inconsistent with Backlog")
	}
}

// TestKeyedPipeDelivery: a keyed pipe still delivers its own frames in
// wire order, and same-instant deliveries on keyed pipes sort after
// ordinary events at that instant and by pipe identity — not by which
// pipe happened to send first.
func TestKeyedPipeDelivery(t *testing.T) {
	eng := sim.New()
	var got []string
	hi, lo := NewPipe(eng, 1.0, 0), NewPipe(eng, 1.0, 0)
	hi.EnableKeyed(7)
	lo.EnableKeyed(2)
	hi.Connect(PortFunc(func(f *Frame) { got = append(got, fmt.Sprintf("hi%d", f.Size)) }))
	lo.Connect(PortFunc(func(f *Frame) { got = append(got, fmt.Sprintf("lo%d", f.Size)) }))

	// Equal-size frames sent back to back on each pipe: the pipes'
	// deliveries land at the same instants, hi having sent first.
	for _, size := range []int{100, 100} {
		hi.Send(&Frame{Src: MakeMAC(0, 1), Dst: MakeMAC(0, 2), Size: size})
		lo.Send(&Frame{Src: MakeMAC(0, 3), Dst: MakeMAC(0, 4), Size: size})
	}
	// An ordinary event scheduled after the sends, at the first
	// delivery instant (one frame's serialization from now).
	first := sim.Time(float64((&Frame{Size: 100}).WireBytes()) / GbpsToBytesPerNs(1.0))
	eng.At(first, func() { got = append(got, "plain") })
	eng.Run(eng.Now() + sim.Millisecond)

	want := []string{"plain", "lo100", "hi100", "lo100", "hi100"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivery order = %v, want %v", got, want)
	}
}

// TestPipeDownReleasesDroppedFrames: a failed link drops into the
// arena, and a portless pipe releases what it delivers.
func TestPipeDownReleasesDroppedFrames(t *testing.T) {
	eng := sim.New()
	p := NewPipe(eng, 1.0, 0)
	p.SetDown(true)
	if !p.Down() {
		t.Fatal("SetDown(true) not reported by Down()")
	}
	a := NewArena()
	f := a.Get(MakeMAC(0, 1), MakeMAC(0, 2), 100, nil)
	p.Send(f)
	if p.Dropped.Total() != 1 {
		t.Fatalf("Dropped = %d, want 1", p.Dropped.Total())
	}
	if a.FreeLen() != 1 {
		t.Fatal("down-link drop leaked the frame")
	}
	p.SetDown(false)

	// With no port connected, delivery releases the frame instead of
	// leaking it.
	f2 := a.Get(MakeMAC(0, 1), MakeMAC(0, 2), 100, nil)
	p.Send(f2)
	eng.Run(eng.Now() + sim.Millisecond)
	if a.FreeLen() != 1 {
		t.Fatal("portless delivery leaked the frame")
	}
}

func TestBridgeLearningAndUnicast(t *testing.T) {
	b := NewBridge()
	var got [3][]*Frame
	for i := 0; i < 3; i++ {
		i := i
		b.AddPort(PortFunc(func(f *Frame) { got[i] = append(got[i], f) }))
	}
	macA, macB := MakeMAC(1, 1), MakeMAC(1, 2)
	// A (port 0) talks; B unknown -> flood to 1 and 2.
	b.Input(0, &Frame{Src: macA, Dst: macB, Size: 100})
	if len(got[0]) != 0 || len(got[1]) != 1 || len(got[2]) != 1 {
		t.Fatalf("flood counts: %d %d %d", len(got[0]), len(got[1]), len(got[2]))
	}
	if b.Lookup(macA) != 0 {
		t.Fatal("source not learned")
	}
	// B replies from port 2: learned A -> unicast to port 0 only.
	b.Input(2, &Frame{Src: macB, Dst: macA, Size: 100})
	if len(got[0]) != 1 || len(got[1]) != 1 {
		t.Fatalf("unicast after learning: %d %d", len(got[0]), len(got[1]))
	}
	// Now A->B is unicast to port 2 only.
	b.Input(0, &Frame{Src: macA, Dst: macB, Size: 100})
	if len(got[2]) != 2 || len(got[1]) != 1 {
		t.Fatalf("unicast to learned dst: %d %d", len(got[2]), len(got[1]))
	}
}

func TestBridgeBroadcastFloods(t *testing.T) {
	b := NewBridge()
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		b.AddPort(PortFunc(func(f *Frame) { counts[i]++ }))
	}
	b.Input(1, &Frame{Src: MakeMAC(1, 1), Dst: Broadcast, Size: 64})
	if counts[1] != 0 {
		t.Fatal("frame echoed to ingress")
	}
	if counts[0] != 1 || counts[2] != 1 || counts[3] != 1 {
		t.Fatalf("broadcast counts: %v", counts)
	}
}

func TestBridgeHairpinSuppressed(t *testing.T) {
	b := NewBridge()
	delivered := 0
	b.AddPort(PortFunc(func(f *Frame) { delivered++ }))
	b.AddPort(PortFunc(func(f *Frame) { delivered++ }))
	macA := MakeMAC(1, 1)
	b.Input(0, &Frame{Src: macA, Dst: MakeMAC(1, 9), Size: 64}) // learn A@0, flood to 1
	b.Input(0, &Frame{Src: MakeMAC(1, 3), Dst: macA, Size: 64}) // dst learned on ingress port: drop
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (hairpin suppressed)", delivered)
	}
}

// Regression: a station whose first frame arrived as part of a flood
// (destination unknown at the time) and which then moves to another
// port must be re-learned on its very next frame — source learning is
// unconditional, never first-writer-wins.
func TestBridgeRelearnAfterFloodMove(t *testing.T) {
	b := NewBridge()
	var got [3][]*Frame
	for i := 0; i < 3; i++ {
		i := i
		b.AddPort(PortFunc(func(f *Frame) { got[i] = append(got[i], f) }))
	}
	macA, macB := MakeMAC(1, 1), MakeMAC(1, 2)
	// A's first frame (dst unknown) floods; A is learned on port 0.
	b.Input(0, &Frame{Src: macA, Dst: macB, Size: 100})
	if b.Lookup(macA) != 0 {
		t.Fatalf("A learned on %d, want 0", b.Lookup(macA))
	}
	// A moves to port 1 (live migration) and speaks again — still a
	// flood (B is still unknown), but A must be re-learned regardless.
	b.Input(1, &Frame{Src: macA, Dst: macB, Size: 100})
	if b.Lookup(macA) != 1 {
		t.Fatalf("A not re-learned after move: Lookup = %d, want 1", b.Lookup(macA))
	}
	if b.Moves.Total() != 1 {
		t.Fatalf("Moves = %d, want 1", b.Moves.Total())
	}
	// Traffic to A now unicasts to the new port only.
	before := len(got[1])
	b.Input(2, &Frame{Src: macB, Dst: macA, Size: 100})
	if len(got[1]) != before+1 || len(got[0]) != 1 {
		t.Fatalf("post-move delivery: port1 got %d (want %d), port0 got %d (want 1, the original flood)",
			len(got[1]), before+1, len(got[0]))
	}
}

// Regression: a move is re-learned even when the triggering frame's
// forwarding is a suppressed hairpin (dst learned on the ingress port),
// the earliest-returning path through Input.
func TestBridgeRelearnOnHairpinFrame(t *testing.T) {
	b := NewBridge()
	b.AddPort(PortFunc(func(f *Frame) {}))
	b.AddPort(PortFunc(func(f *Frame) {}))
	macA, macB := MakeMAC(1, 1), MakeMAC(1, 2)
	b.Input(0, &Frame{Src: macA, Dst: Broadcast, Size: 60}) // A @ 0
	b.Input(1, &Frame{Src: macB, Dst: Broadcast, Size: 60}) // B @ 1
	// B moves to port 0 and sends to A: dst A is learned on ingress 0,
	// so forwarding hairpin-suppresses — but B must still move to 0.
	b.Input(0, &Frame{Src: macB, Dst: macA, Size: 100})
	if b.Lookup(macB) != 0 {
		t.Fatalf("B not re-learned on hairpin frame: Lookup = %d, want 0", b.Lookup(macB))
	}
}

// Property: wherever a station last transmitted from is where the
// bridge delivers its traffic — across any interleaving of moves.
func TestBridgeAlwaysTracksLastIngressProperty(t *testing.T) {
	f := func(moves []uint8) bool {
		const n = 4
		b := NewBridge()
		delivered := make([]int, n)
		for i := 0; i < n; i++ {
			i := i
			b.AddPort(PortFunc(func(f *Frame) { delivered[i]++ }))
		}
		mac := MakeMAC(3, 1)
		probe := MakeMAC(3, 2)
		b.Input(0, &Frame{Src: probe, Dst: Broadcast, Size: 60}) // prober @ 0
		last := -1
		for _, mv := range moves {
			port := int(mv) % n
			b.Input(port, &Frame{Src: mac, Dst: probe, Size: 100})
			last = port
			if b.Lookup(mac) != port {
				return false
			}
		}
		if last < 0 {
			return true
		}
		// A frame to the station goes to its last ingress port (unless
		// that is the prober's own port — hairpin).
		before := delivered[last]
		b.Input(0, &Frame{Src: probe, Dst: mac, Size: 100})
		if last == 0 {
			return delivered[0] == before
		}
		return delivered[last] == before+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: after the bridge has learned a unicast MAC, a frame to it is
// delivered to exactly one port.
func TestBridgeSingleDeliveryProperty(t *testing.T) {
	f := func(srcIdx, dstIdx uint8, nPorts uint8) bool {
		n := int(nPorts%6) + 2
		b := NewBridge()
		counts := make([]int, n)
		for i := 0; i < n; i++ {
			i := i
			b.AddPort(PortFunc(func(f *Frame) { counts[i]++ }))
		}
		src := MakeMAC(1, int(srcIdx))
		dst := MakeMAC(2, int(dstIdx))
		inSrc, inDst := int(srcIdx)%n, int(dstIdx)%n
		b.Input(inDst, &Frame{Src: dst, Dst: src, Size: 64}) // learn dst
		for i := range counts {
			counts[i] = 0
		}
		b.Input(inSrc, &Frame{Src: src, Dst: dst, Size: 64})
		total := 0
		for _, c := range counts {
			total += c
		}
		if inSrc == inDst {
			return total == 0 // hairpin
		}
		return total == 1 && counts[inDst] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBridgeImageSortedByMAC: the forwarding database is keyed by a
// packed integer, whose order must be MAC byte order, and every learned
// MAC must be looked up exactly. The MACs differ in each byte position,
// high bytes included.
func TestBridgeImageSortedByMAC(t *testing.T) {
	b := NewBridge()
	b.AddPort(PortFunc(func(f *Frame) {}))
	b.AddPort(PortFunc(func(f *Frame) {}))
	macs := []MAC{
		{0xfe, 0, 0, 0, 0, 1}, {0x02, 0xff, 0, 0, 0, 0}, {0x02, 0, 0, 0, 0, 0xff},
		{0x02, 0, 0x80, 0, 0, 0}, {0x02, 0, 0, 0, 0x01, 0}, {0x02, 0, 0, 0x7f, 0, 0},
		{0x00, 0, 0, 0, 0, 0},
	}
	for i, m := range macs {
		b.Learn(m, i%2)
	}
	byKey := append([]MAC(nil), macs...)
	sort.Slice(byKey, func(i, j int) bool { return macKey(byKey[i]) < macKey(byKey[j]) })
	for i := 1; i < len(byKey); i++ {
		if bytes.Compare(byKey[i-1][:], byKey[i][:]) >= 0 {
			t.Fatalf("key order is not MAC order at %d: %v then %v", i, byKey[i-1], byKey[i])
		}
	}
	for i, m := range macs {
		if got := b.Lookup(m); got != i%2 {
			t.Fatalf("Lookup(%v) = %d, want %d", m, got, i%2)
		}
	}
}

func TestBridgeUnlearn(t *testing.T) {
	b := NewBridge()
	for i := 0; i < 3; i++ {
		b.AddPort(PortFunc(func(*Frame) {}))
	}
	if b.NumPorts() != 3 {
		t.Fatalf("NumPorts = %d", b.NumPorts())
	}
	macs := []MAC{MakeMAC(7, 0), MakeMAC(7, 1), MakeMAC(7, 2)}
	for i, m := range macs {
		b.Input(i, &Frame{Src: m, Dst: Broadcast, Size: 60})
	}
	if n := b.Unlearn(1); n != 1 {
		t.Fatalf("Unlearn removed %d entries, want 1", n)
	}
	if b.Lookup(macs[1]) != -1 {
		t.Fatal("station still learned after Unlearn")
	}
	if b.Lookup(macs[0]) != 0 || b.Lookup(macs[2]) != 2 {
		t.Fatal("Unlearn touched other ports' stations")
	}
	if n := b.Unlearn(1); n != 0 {
		t.Fatalf("second Unlearn removed %d entries, want 0", n)
	}
}

// TestPipeNextFreeAfterIdle: once the wire has drained, NextFree is the
// current time, never the past.
func TestPipeNextFreeAfterIdle(t *testing.T) {
	eng := sim.New()
	p := NewPipe(eng, 1.0, 0)
	p.Connect(PortFunc(func(f *Frame) {}))
	p.Send(&Frame{Size: 1514})
	busy := p.NextFree()
	eng.Run(busy + sim.Microsecond)
	if got := p.NextFree(); got != eng.Now() || got <= busy {
		t.Fatalf("idle NextFree = %v, want now %v", got, eng.Now())
	}
}

// TestDuplexWindowCounters: a duplex link is two independent pipes,
// and StartWindow opens (or reopens, zeroed) each pipe's windowed
// counters without touching its totals.
func TestDuplexWindowCounters(t *testing.T) {
	eng := sim.New()
	l := NewDuplex(eng, 1.0, 500*sim.Nanosecond)
	var got [2]int
	l.AtoB.Connect(PortFunc(func(f *Frame) { got[0]++ }))
	l.BtoA.Connect(PortFunc(func(f *Frame) { got[1]++ }))
	l.AtoB.StartWindow()
	l.BtoA.StartWindow()
	l.AtoB.Send(&Frame{Size: 1514})
	l.AtoB.Send(&Frame{Size: 1514})
	l.BtoA.Send(&Frame{Size: 60})
	eng.Run(eng.Now() + sim.Millisecond)
	if got != [2]int{2, 1} {
		t.Fatalf("deliveries A→B, B→A = %v, want [2 1]", got)
	}
	if l.AtoB.Frames.Window() != 2 || l.BtoA.Frames.Window() != 1 {
		t.Fatalf("window frames %d/%d", l.AtoB.Frames.Window(), l.BtoA.Frames.Window())
	}
	l.AtoB.StartWindow()
	if l.AtoB.Frames.Window() != 0 || l.AtoB.Bytes.Window() != 0 || l.AtoB.Dropped.Window() != 0 {
		t.Fatal("StartWindow left windowed counters nonzero")
	}
	if l.AtoB.Frames.Total() != 2 || l.BtoA.Frames.Window() != 1 {
		t.Fatal("StartWindow touched totals or the other direction")
	}
}

// TestBridgeLearnReturnsPreviousPort: Learn reports -1 for a new
// station and the old port for a re-pointed one, and forwarding
// follows the latest entry.
func TestBridgeLearnReturnsPreviousPort(t *testing.T) {
	b := NewBridge()
	var got [2]int
	for i := range got {
		b.AddPort(PortFunc(func(*Frame) { got[i]++ }))
	}
	m := MakeMAC(9, 0)
	if old := b.Learn(m, 0); old != -1 {
		t.Fatalf("first Learn returned %d, want -1", old)
	}
	if old := b.Learn(m, 1); old != 0 {
		t.Fatalf("re-Learn returned %d, want 0", old)
	}
	b.Input(0, &Frame{Src: MakeMAC(9, 1), Dst: m, Size: 60})
	if got != [2]int{0, 1} || b.Forwarded.Total() != 1 {
		t.Fatalf("deliveries %v forwarded %d, want unicast to port 1", got, b.Forwarded.Total())
	}
}
