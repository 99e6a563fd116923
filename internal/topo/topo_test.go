package topo

import (
	"fmt"
	"testing"

	"cdna/internal/ether"
	"cdna/internal/sim"
)

// rig is a switch with n stations, one per port, each reachable through
// real pipes; deliveries are recorded per port in arrival order.
type rig struct {
	eng   *sim.Engine
	sw    *Switch
	ups   []*ether.Pipe // station -> switch
	macs  []ether.MAC
	log   [][]*ether.Frame // per-port deliveries
	order []delivery       // global delivery order
}

type delivery struct {
	port int
	f    *ether.Frame
	at   sim.Time
}

func newRig(t testing.TB, n int, p Params) *rig {
	t.Helper()
	r := &rig{eng: sim.New()}
	r.sw = New(r.eng, p)
	for i := 0; i < n; i++ {
		i := i
		l := ether.NewDuplex(r.eng, p.LinkGbps, p.PropDelay)
		r.sw.AddPort(l.AtoB, l.BtoA)
		l.BtoA.Connect(ether.PortFunc(func(f *ether.Frame) {
			r.log[i] = append(r.log[i], f)
			r.order = append(r.order, delivery{i, f, r.eng.Now()})
		}))
		r.ups = append(r.ups, l.AtoB)
		r.macs = append(r.macs, ether.MakeMAC(5, i))
	}
	r.log = make([][]*ether.Frame, n)
	return r
}

// learnAll primes the forwarding database: every station broadcasts
// once, so all MACs are learned before the measured traffic. The
// switch's windowed counters restart so the priming traffic is not part
// of any conservation ledger.
func (r *rig) learnAll() {
	for i, up := range r.ups {
		up.Send(&ether.Frame{Src: r.macs[i], Dst: ether.Broadcast, Size: 60})
	}
	r.eng.Run(r.eng.Now() + sim.Second)
	for i := range r.log {
		r.log[i] = r.log[i][:0]
	}
	r.order = r.order[:0]
	r.sw.StartWindow()
}

func (r *rig) drain() { r.eng.Run(r.eng.Now() + 10*sim.Second) }

func fastParams() Params {
	// Degenerate fabric: effectively infinite line rate, zero latency,
	// unbounded queues — the switch collapses to pure bridge semantics.
	return Params{LinkGbps: 8e9, PropDelay: 0, ForwardLatency: 0, EgressCap: 1 << 30}
}

func TestSwitchLearnsAndUnicasts(t *testing.T) {
	r := newRig(t, 3, DefaultParams())
	r.learnAll()
	r.ups[0].Send(&ether.Frame{Src: r.macs[0], Dst: r.macs[2], Size: 1514})
	r.drain()
	if len(r.log[2]) != 1 || len(r.log[1]) != 0 {
		t.Fatalf("unicast deliveries: port1=%d port2=%d", len(r.log[1]), len(r.log[2]))
	}
	if r.sw.Lookup(r.macs[0]) != 0 {
		t.Fatal("source not learned")
	}
}

func TestSwitchStoreAndForwardLatency(t *testing.T) {
	p := DefaultParams()
	r := newRig(t, 2, p)
	r.learnAll()
	start := r.eng.Now()
	f := &ether.Frame{Src: r.macs[0], Dst: r.macs[1], Size: 1514}
	r.ups[0].Send(f)
	r.drain()
	if len(r.log[1]) != 1 {
		t.Fatalf("deliveries = %d", len(r.log[1]))
	}
	// Two full serializations (ingress link, egress link), two
	// propagations, plus the switch's forwarding latency.
	wire := sim.Time(float64(f.WireBytes()) / ether.GbpsToBytesPerNs(p.LinkGbps))
	want := start + 2*wire + 2*p.PropDelay + p.ForwardLatency
	if got := r.order[0].at; got != want {
		t.Fatalf("delivered at %v, want %v (store-and-forward of two hops)", got, want)
	}
}

func TestSwitchEgressTailDropAndConservation(t *testing.T) {
	p := DefaultParams()
	p.EgressCap = 4
	r := newRig(t, 3, p)
	r.learnAll()
	// Two senders converge on station 2 far above line rate: the egress
	// queue must cap at 4 and tail-drop the excess.
	const burst = 50
	for i := 0; i < burst; i++ {
		r.ups[0].Send(&ether.Frame{Src: r.macs[0], Dst: r.macs[2], Size: 1514})
		r.ups[1].Send(&ether.Frame{Src: r.macs[1], Dst: r.macs[2], Size: 1514})
	}
	r.drain()
	port := r.sw.Port(2)
	if port.Dropped.Window() == 0 {
		t.Fatal("incast burst above line rate must tail-drop")
	}
	if port.MaxDepth() > p.EgressCap {
		t.Fatalf("egress depth %d exceeded cap %d", port.MaxDepth(), p.EgressCap)
	}
	if port.Depth() != 0 {
		t.Fatalf("queue not drained: depth %d", port.Depth())
	}
	// Conservation: every forwarding decision either entered the queue
	// or was counted as a drop, and everything enqueued was delivered.
	if got := port.Enqueued.Window() + port.Dropped.Window(); got != 2*burst {
		t.Fatalf("enqueued+dropped = %d, want %d", got, 2*burst)
	}
	if uint64(len(r.log[2])) != port.Enqueued.Window() {
		t.Fatalf("delivered %d, enqueued %d", len(r.log[2]), port.Enqueued.Window())
	}
}

// The randomized differential test: the same frame schedule through the
// store-and-forward switch (with a degenerate zero-cost fabric) and
// through a flat ether.Bridge must produce identical global delivery
// order and byte-identical per-station counters — the switch is the
// bridge plus physics, nothing else. Mirrors the heap-vs-wheel
// scheduler differential in internal/sim/sched_test.go.
func TestSwitchVsBridgeDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const nPorts = 5
			const nFrames = 400

			type event struct {
				in   int
				f    *ether.Frame
				gap  sim.Time
				size int
			}
			// One schedule, generated once per seed.
			rng := sim.NewRNG(seed)
			macs := make([]ether.MAC, nPorts)
			for i := range macs {
				macs[i] = ether.MakeMAC(5, i)
			}
			var sched []event
			for i := 0; i < nFrames; i++ {
				in := rng.Intn(nPorts)
				dst := ether.Broadcast
				if rng.Intn(10) > 0 { // 10% broadcast
					dst = macs[rng.Intn(nPorts)]
				}
				size := 60 + rng.Intn(1455)
				// Distinct timestamps per input: same-instant contention on
				// one egress wire is the pipe's FIFO physics, which the
				// synchronous reference cannot express (the property test
				// covers contention).
				sched = append(sched, event{
					in:  in,
					f:   &ether.Frame{Src: macs[in], Dst: dst, Size: size, Payload: i},
					gap: 1 + sim.Time(rng.Intn(2000)),
				})
			}

			// Reference: flat bridge, synchronous delivery.
			bridge := ether.NewBridge()
			var refOrder []string
			refBytes := make([]uint64, nPorts)
			for i := 0; i < nPorts; i++ {
				i := i
				bridge.AddPort(ether.PortFunc(func(f *ether.Frame) {
					refOrder = append(refOrder, fmt.Sprintf("%d<-%d", i, f.Payload))
					refBytes[i] += uint64(f.Size)
				}))
			}
			for _, ev := range sched {
				bridge.Input(ev.in, ev.f)
			}

			// Subject: the switch on a zero-cost fabric, same schedule as
			// timed events.
			eng := sim.New()
			sw := New(eng, fastParams())
			var gotOrder []string
			gotBytes := make([]uint64, nPorts)
			for i := 0; i < nPorts; i++ {
				i := i
				out := ether.NewPipe(eng, fastParams().LinkGbps, 0)
				out.Connect(ether.PortFunc(func(f *ether.Frame) {
					gotOrder = append(gotOrder, fmt.Sprintf("%d<-%d", i, f.Payload))
					gotBytes[i] += uint64(f.Size)
				}))
				sw.AddPort(nil, out)
			}
			at := sim.Time(0)
			for _, ev := range sched {
				at += ev.gap
				ev := ev
				eng.At(at, func() { sw.Input(ev.in, ev.f) })
			}
			eng.Run(at + sim.Second)

			if len(gotOrder) != len(refOrder) {
				t.Fatalf("delivery counts differ: switch %d, bridge %d", len(gotOrder), len(refOrder))
			}
			for i := range refOrder {
				if gotOrder[i] != refOrder[i] {
					t.Fatalf("delivery %d differs: switch %q, bridge %q", i, gotOrder[i], refOrder[i])
				}
			}
			for i := range refBytes {
				if gotBytes[i] != refBytes[i] {
					t.Fatalf("port %d byte counters differ: switch %d, bridge %d", i, gotBytes[i], refBytes[i])
				}
			}
			if sw.Forwarded().Total() != bridge.Forwarded.Total() || sw.Flooded().Total() != bridge.Flooded.Total() {
				t.Fatalf("fwd/flood counters differ: switch %d/%d, bridge %d/%d",
					sw.Forwarded().Total(), sw.Flooded().Total(), bridge.Forwarded.Total(), bridge.Flooded.Total())
			}
		})
	}
}

// Fabric invariants under random topologies and overload-induced drops:
// no frame duplicated to a port, no reordering within a (src,dst) pair,
// and conservation — every forwarding decision is either delivered or
// counted as dropped, nothing vanishes. Runs under -race in CI.
func TestSwitchFabricInvariantsProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed * 7919)
			n := 2 + rng.Intn(7) // 2..8 ports
			p := DefaultParams()
			p.EgressCap = 2 + rng.Intn(16) // small queues force drops
			r := newRig(t, n, p)
			// Random (but unique) station MACs.
			for i := range r.macs {
				r.macs[i] = ether.MakeMAC(1+rng.Intn(40), i)
			}
			r.learnAll()

			// Random traffic offered above line rate so egress queues
			// overflow; each frame carries (sender, sequence) identity.
			const frames = 2000
			type key struct{ src, dst int }
			sent := map[key][]int{}
			at := r.eng.Now()
			for i := 0; i < frames; i++ {
				src := rng.Intn(n)
				dst := rng.Intn(n)
				if dst == src {
					dst = (dst + 1) % n
				}
				k := key{src, dst}
				sent[k] = append(sent[k], i)
				f := &ether.Frame{Src: r.macs[src], Dst: r.macs[dst], Size: 200 + rng.Intn(1300), Payload: i}
				at += sim.Time(rng.Intn(6000)) // ~3us mean gap < 12us line slot: overload
				ii, ff := src, f
				r.eng.At(at, func() { r.ups[ii].Send(ff) })
			}
			r.eng.Run(at + sim.Second)
			r.drain()

			// Reconstruct per-(src,dst) delivery sequences.
			got := map[key][]int{}
			seenAtPort := map[[2]int]bool{}
			for port, list := range r.log {
				for _, f := range list {
					id := f.Payload.(int)
					if seenAtPort[[2]int{port, id}] {
						t.Fatalf("frame %d duplicated at port %d", id, port)
					}
					seenAtPort[[2]int{port, id}] = true
					src := r.sw.Lookup(f.Src)
					got[key{src, port}] = append(got[key{src, port}], id)
				}
			}
			// No reordering: each delivered sequence is a subsequence of
			// the sent sequence (tail drops may punch holes, never swap).
			for k, ids := range got {
				pos := -1
				sentIDs := sent[k]
				idx := map[int]int{}
				for i, id := range sentIDs {
					idx[id] = i
				}
				for _, id := range ids {
					p, ok := idx[id]
					if !ok {
						t.Fatalf("port %d delivered frame %d never sent on pair %v", k.dst, id, k)
					}
					if p <= pos {
						t.Fatalf("pair %v reordered: frame %d arrived after a later frame", k, id)
					}
					pos = p
				}
			}
			// Conservation, per port and globally, after full drain.
			var enq, drop, delivered uint64
			for i := 0; i < r.sw.NumPorts(); i++ {
				port := r.sw.Port(i)
				if port.Depth() != 0 {
					t.Fatalf("port %d not drained: depth %d", i, port.Depth())
				}
				if uint64(len(r.log[i])) != port.Enqueued.Window() {
					t.Fatalf("port %d delivered %d != enqueued %d", i, len(r.log[i]), port.Enqueued.Window())
				}
				enq += port.Enqueued.Window()
				drop += port.Dropped.Window()
				delivered += uint64(len(r.log[i]))
			}
			// Unicast to learned MACs: one forwarding decision per input.
			if enq+drop != r.sw.Inputs.Window() {
				t.Fatalf("conservation: enqueued %d + dropped %d != inputs %d", enq, drop, r.sw.Inputs.Window())
			}
			if drop != r.sw.Drops.Window() {
				t.Fatalf("drop ledgers disagree: ports %d, switch %d", drop, r.sw.Drops.Window())
			}
			if delivered+drop != uint64(frames) {
				t.Fatalf("sent %d != delivered %d + dropped %d", frames, delivered, drop)
			}
		})
	}
}

// Invalid fabric constants must be rejected at construction with a
// clear error, not turned into silently nonsense schedules. EgressCap
// <= 0 stays a legal "use the default" request.
func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{LinkGbps: 0, PropDelay: 0, ForwardLatency: 0},
		{LinkGbps: -1},
		{LinkGbps: 1, PropDelay: -sim.Nanosecond},
		{LinkGbps: 1, ForwardLatency: -sim.Microsecond},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("Params %+v validated, want error", p)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New accepted invalid Params %+v", p)
				}
			}()
			New(sim.New(), p)
		}()
	}
	ok := DefaultParams()
	ok.EgressCap = 0 // "unset" defaults, never errors
	if err := ok.Validate(); err != nil {
		t.Fatalf("default Params rejected: %v", err)
	}
	if sw := New(sim.New(), ok); sw.Params().EgressCap != DefaultParams().EgressCap {
		t.Fatalf("EgressCap not defaulted: %d", sw.Params().EgressCap)
	}
}

// Failed ports must be dead in both directions. FailPort kills egress;
// this pins the ingress half: a host behind a failed port that keeps
// transmitting must see every frame dropped at the port — zero
// forwards, zero floods, zero station moves — until RestorePort.
// (Regression: ingress frames on a failed port used to be accepted and
// forwarded, silently re-learning the "dead" station's MAC.)
func TestSwitchFailedPortDropsIngress(t *testing.T) {
	r := newRig(t, 3, DefaultParams())
	r.learnAll()
	r.sw.FailPort(0)
	if r.sw.Lookup(r.macs[0]) != -1 {
		t.Fatal("FailPort must unlearn the station behind the port")
	}

	// The host behind the dead port keeps transmitting.
	const frames = 20
	for i := 0; i < frames; i++ {
		r.ups[0].Send(&ether.Frame{Src: r.macs[0], Dst: r.macs[2], Size: 300})
	}
	r.drain()
	if got := len(r.log[2]); got != 0 {
		t.Fatalf("failed port leaked %d ingress frames to port 2, want 0", got)
	}
	if fwd, fld := r.sw.Forwarded().Window(), r.sw.Flooded().Window(); fwd != 0 || fld != 0 {
		t.Fatalf("failed-port ingress reached the bridge: forwarded %d, flooded %d, want 0/0", fwd, fld)
	}
	if moves := r.sw.Moves().Window(); moves != 0 {
		t.Fatalf("failed-port ingress re-learned its MAC: moves %d, want 0", moves)
	}
	if r.sw.Lookup(r.macs[0]) != -1 {
		t.Fatal("failed-port ingress must not refresh the forwarding database")
	}
	// The drops are accounted on the failed port and the switch total.
	port := r.sw.Port(0)
	if port.Dropped.Window() != frames || r.sw.Drops.Window() != frames {
		t.Fatalf("ingress drops: port %d, switch %d, want %d both",
			port.Dropped.Window(), r.sw.Drops.Window(), frames)
	}

	// RestorePort brings the station back: traffic flows and the MAC is
	// re-learned from its next frame.
	r.sw.RestorePort(0)
	r.ups[0].Send(&ether.Frame{Src: r.macs[0], Dst: r.macs[2], Size: 300})
	r.drain()
	if got := len(r.log[2]); got != 1 {
		t.Fatalf("restored port delivered %d frames, want 1", got)
	}
	if r.sw.Lookup(r.macs[0]) != 0 {
		t.Fatal("restored station not re-learned")
	}
}

// The switch relearns a moved station exactly as the flat bridge does
// (the regression the ether tests pin, holding through the
// store-and-forward layer).
func TestSwitchRelearnAfterMove(t *testing.T) {
	r := newRig(t, 3, DefaultParams())
	r.learnAll()
	mac := r.macs[0]
	// Station 0 "migrates" to port 1 and transmits from there.
	r.ups[1].Send(&ether.Frame{Src: mac, Dst: r.macs[2], Size: 300})
	r.drain()
	if r.sw.Lookup(mac) != 1 {
		t.Fatalf("moved station learned on %d, want 1", r.sw.Lookup(mac))
	}
	// Traffic toward it now exits port 1.
	before := len(r.log[1])
	r.ups[2].Send(&ether.Frame{Src: r.macs[2], Dst: mac, Size: 300})
	r.drain()
	if len(r.log[1]) != before+1 {
		t.Fatalf("delivery after move: port1 got %d, want %d", len(r.log[1]), before+1)
	}
}

// The forwarding hot path must not allocate in steady state: pooled
// events, a reused pending FIFO, and per-port FIFOs at working depth.
// (No recording rig here — recorder appends would be the only
// allocations.)
func TestSwitchHotPathZeroAlloc(t *testing.T) {
	eng := sim.New()
	p := DefaultParams()
	sw := New(eng, p)
	const n = 4
	ups := make([]*ether.Pipe, n)
	macs := make([]ether.MAC, n)
	for i := 0; i < n; i++ {
		l := ether.NewDuplex(eng, p.LinkGbps, p.PropDelay)
		sw.AddPort(l.AtoB, l.BtoA)
		l.BtoA.Connect(ether.PortFunc(func(f *ether.Frame) {}))
		ups[i] = l.AtoB
		macs[i] = ether.MakeMAC(5, i)
	}
	for i, up := range ups {
		up.Send(&ether.Frame{Src: macs[i], Dst: ether.Broadcast, Size: 60})
	}
	drain := func() { eng.Run(eng.Now() + 10*sim.Second) }
	drain()
	f := &ether.Frame{Src: macs[0], Dst: macs[2], Size: 1514}
	// Prime FIFOs and the event pool to working depth.
	for i := 0; i < 64; i++ {
		ups[0].Send(f)
	}
	drain()
	allocs := testing.AllocsPerRun(200, func() {
		ups[0].Send(f)
		drain()
	})
	if allocs != 0 {
		t.Fatalf("switch hot path allocates %.1f per frame, want 0", allocs)
	}
}

func TestNewDefaultsEgressCap(t *testing.T) {
	s := New(sim.New(), Params{LinkGbps: 1.0})
	if got, want := s.Params().EgressCap, DefaultParams().EgressCap; got != want {
		t.Fatalf("EgressCap defaulted to %d, want %d", got, want)
	}
}

func TestFailPortDiscardsAndUnlearns(t *testing.T) {
	r := newRig(t, 3, DefaultParams())
	if r.sw.Params() != DefaultParams() {
		t.Fatalf("Params = %+v", r.sw.Params())
	}
	r.learnAll()
	for i := 0; i < 12; i++ {
		r.ups[0].Send(&ether.Frame{Src: r.macs[0], Dst: r.macs[2], Size: 1514})
		r.ups[1].Send(&ether.Frame{Src: r.macs[1], Dst: r.macs[2], Size: 1514})
	}
	r.eng.Run(r.eng.Now() + 60*sim.Microsecond)
	if r.sw.Port(2).Depth() == 0 {
		t.Fatal("victim queue empty — failure would discard nothing")
	}

	drops := r.sw.Drops.Total()
	r.sw.FailPort(2)
	if !r.sw.Port(2).Failed() {
		t.Fatal("port not marked failed")
	}
	if r.sw.Port(2).Depth() != 0 {
		t.Fatal("failed port kept queued frames")
	}
	if r.sw.Drops.Total() <= drops {
		t.Fatal("discarded queue not counted as drops")
	}
	if r.sw.Lookup(r.macs[2]) != -1 {
		t.Fatal("station behind the failed port still learned")
	}

	// Bits already on the wire at failure time still land; let them
	// drain before asserting the port goes silent.
	r.drain()
	r.log[2] = nil

	// Traffic toward the unlearned station floods; the copy aimed at
	// the failed port drops, the rest deliver.
	flooded := r.sw.Flooded().Total()
	r.ups[0].Send(&ether.Frame{Src: r.macs[0], Dst: r.macs[2], Size: 60})
	r.drain()
	if r.sw.Flooded().Total() <= flooded {
		t.Fatal("unknown-unicast did not flood after Unlearn")
	}
	if n := len(r.log[2]); n != 0 {
		t.Fatalf("failed port delivered %d frames", n)
	}

	// Healing: the station re-learns from its next transmission and
	// unicast resumes.
	r.sw.RestorePort(2)
	if r.sw.Port(2).Failed() {
		t.Fatal("port still failed after RestorePort")
	}
	r.ups[2].Send(&ether.Frame{Src: r.macs[2], Dst: r.macs[0], Size: 60})
	r.drain()
	if r.sw.Lookup(r.macs[2]) != 2 {
		t.Fatal("station not re-learned after healing")
	}
	before := len(r.log[1])
	r.ups[0].Send(&ether.Frame{Src: r.macs[0], Dst: r.macs[2], Size: 60})
	r.drain()
	if len(r.log[1]) != before {
		t.Fatal("post-heal unicast still flooding")
	}
	if r.sw.Moves().Total() != 0 {
		// Same-port re-learning is not a station move; the Moves counter
		// only fires when a MAC reappears behind a different port.
		t.Fatalf("Moves = %d on a fixed topology", r.sw.Moves().Total())
	}
}
