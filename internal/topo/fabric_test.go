package topo

import (
	"fmt"
	"testing"

	"cdna/internal/ether"
	"cdna/internal/sim"
)

// fabRig is a fabric with hosts*nics endpoints attached through real
// keyed access links (mirroring the bench cluster wiring: access pipes
// keyed 0.., trunks keyed above them); deliveries are recorded per
// global port in arrival order.
type fabRig struct {
	eng   *sim.Engine
	fb    *Fabric
	ups   []*ether.Pipe
	macs  []ether.MAC
	log   [][]*ether.Frame
	order []delivery
}

func newFabRig(t testing.TB, hosts, nics int, p Params, spec FabricSpec) *fabRig {
	t.Helper()
	eng := sim.New()
	total := hosts * nics
	fb, err := NewFabric(eng, p, spec, hosts, nics, 2*total)
	if err != nil {
		t.Fatal(err)
	}
	r := &fabRig{eng: eng, fb: fb, log: make([][]*ether.Frame, total)}
	for i := 0; i < total; i++ {
		i := i
		l := ether.NewDuplex(eng, p.LinkGbps, p.PropDelay)
		l.AtoB.EnableKeyed(2 * i)
		l.BtoA.EnableKeyed(2*i + 1)
		fb.AddPort(l.AtoB, l.BtoA)
		l.BtoA.Connect(ether.PortFunc(func(f *ether.Frame) {
			r.log[i] = append(r.log[i], f)
			r.order = append(r.order, delivery{i, f, eng.Now()})
		}))
		r.ups = append(r.ups, l.AtoB)
		r.macs = append(r.macs, ether.MakeMAC(5, i))
	}
	return r
}

func (r *fabRig) learnAll() {
	for i, up := range r.ups {
		up.Send(&ether.Frame{Src: r.macs[i], Dst: ether.Broadcast, Size: 60})
	}
	r.eng.Run(r.eng.Now() + sim.Second)
	for i := range r.log {
		r.log[i] = r.log[i][:0]
	}
	r.order = r.order[:0]
	r.fb.StartWindow()
}

func (r *fabRig) drain() { r.eng.Run(r.eng.Now() + 10*sim.Second) }

// Every topology preset must deliver any-to-any unicast exactly once
// after the forwarding databases are primed, across leaf, pod and core
// boundaries alike.
func TestFabricConnectivity(t *testing.T) {
	specs := []FabricSpec{
		{Kind: KindToR},
		{Kind: KindLeafSpine, HostsPerLeaf: 2, Spines: 2},
		{Kind: KindLeafSpine, HostsPerLeaf: 1, Spines: 3},
		{Kind: KindFatTree, HostsPerLeaf: 2, Spines: 2},
		{Kind: KindFatTree, HostsPerLeaf: 1, Spines: 2},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Kind.String()+spec.Suffix(), func(t *testing.T) {
			const hosts = 6
			r := newFabRig(t, hosts, 1, DefaultParams(), spec)
			r.learnAll()
			n := 0
			for s := 0; s < hosts; s++ {
				for d := 0; d < hosts; d++ {
					if s == d {
						continue
					}
					r.ups[s].Send(&ether.Frame{Src: r.macs[s], Dst: r.macs[d], Size: 900, Payload: n})
					n++
					r.drain()
				}
			}
			for d := 0; d < hosts; d++ {
				if got := len(r.log[d]); got != hosts-1 {
					t.Fatalf("host %d received %d unicasts, want %d", d, got, hosts-1)
				}
			}
			if r.fb.DropsWindow() != 0 {
				t.Fatalf("paced unicast sweep dropped %d frames", r.fb.DropsWindow())
			}
		})
	}
}

// Broadcast in a multi-rooted Clos must reach every other endpoint
// exactly once — the valley-free one-uplink flood rule and the fat-tree
// core stripe must prevent both loops and duplicates.
func TestFabricBroadcastNoDuplicates(t *testing.T) {
	specs := []FabricSpec{
		{Kind: KindLeafSpine, HostsPerLeaf: 2, Spines: 3},
		{Kind: KindFatTree, HostsPerLeaf: 2, Spines: 2},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Kind.String(), func(t *testing.T) {
			const hosts = 8
			r := newFabRig(t, hosts, 1, DefaultParams(), spec)
			for s := 0; s < hosts; s++ {
				r.ups[s].Send(&ether.Frame{Src: r.macs[s], Dst: ether.Broadcast, Size: 60, Payload: s})
				r.drain()
				for d := 0; d < hosts; d++ {
					want := 1
					if d == s {
						want = 0
					}
					got := 0
					for _, f := range r.log[d] {
						if f.Payload == s {
							got++
						}
					}
					if got != want {
						t.Fatalf("broadcast from %d: host %d received %d copies, want %d", s, d, got, want)
					}
				}
			}
		})
	}
}

// The multi-switch extension of the fabric invariants property suite:
// randomized topology shapes and overloaded random traffic must show no
// duplication at any host, no reordering within a (src,dst) pair, and
// exact conservation — every frame copy terminates exactly once:
//
//	delivered + dropped + strayed == offered + (floodCopies - floods)
//
// where floodCopies-floods is the extra copies flooding created. Per
// port, Enqueued+Dropped remains exactly the forwarding decisions
// toward that port. Runs under -race and both scheduler tags in CI.
func TestFabricInvariantsProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed * 104729)
			spec := FabricSpec{
				Kind:         KindLeafSpine,
				HostsPerLeaf: 1 + rng.Intn(3),
				Spines:       1 + rng.Intn(3),
				Oversub:      1 + float64(rng.Intn(3)),
				Seed:         rng.Uint64(),
			}
			if seed%2 == 0 {
				spec.Kind = KindFatTree
			}
			hosts := 3 + rng.Intn(5)
			p := DefaultParams()
			p.EgressCap = 2 + rng.Intn(16)
			r := newFabRig(t, hosts, 1, p, spec)
			for i := range r.macs {
				r.macs[i] = ether.MakeMAC(1+rng.Intn(40), i)
			}
			r.learnAll()

			const frames = 2000
			type key struct{ src, dst int }
			sent := map[key][]int{}
			at := r.eng.Now()
			for i := 0; i < frames; i++ {
				src := rng.Intn(hosts)
				dst := rng.Intn(hosts)
				if dst == src {
					dst = (dst + 1) % hosts
				}
				k := key{src, dst}
				sent[k] = append(sent[k], i)
				f := &ether.Frame{Src: r.macs[src], Dst: r.macs[dst], Size: 200 + rng.Intn(1300), Payload: i}
				at += sim.Time(rng.Intn(6000))
				ii, ff := src, f
				r.eng.At(at, func() { r.ups[ii].Send(ff) })
			}
			r.eng.Run(at + sim.Second)
			r.drain()

			// No duplication at any host; reconstruct (src,dst) sequences.
			macHost := map[ether.MAC]int{}
			for i, m := range r.macs {
				macHost[m] = i
			}
			got := map[key][]int{}
			seenAtPort := map[[2]int]bool{}
			var delivered uint64
			for port, list := range r.log {
				for _, f := range list {
					id := f.Payload.(int)
					if seenAtPort[[2]int{port, id}] {
						t.Fatalf("frame %d duplicated at host %d", id, port)
					}
					seenAtPort[[2]int{port, id}] = true
					got[key{macHost[f.Src], port}] = append(got[key{macHost[f.Src], port}], id)
					delivered++
				}
			}
			// No reordering within a pair: each delivered sequence is a
			// subsequence of the sent one (drops punch holes, never swap).
			for k, ids := range got {
				pos := -1
				idx := map[int]int{}
				for i, id := range sent[k] {
					idx[id] = i
				}
				for _, id := range ids {
					p, ok := idx[id]
					if !ok {
						t.Fatalf("host %d got frame %d never sent on pair %v", k.dst, id, k)
					}
					if p <= pos {
						t.Fatalf("pair %v reordered: frame %d arrived after a later frame", k, id)
					}
					pos = p
				}
			}
			// Per-port conservation and full drain, across every switch.
			var enq, drop uint64
			for si := 0; si < r.fb.NumSwitches(); si++ {
				sw := r.fb.SwitchAt(si)
				for pi := 0; pi < sw.NumPorts(); pi++ {
					port := sw.Port(pi)
					if port.Depth() != 0 {
						t.Fatalf("switch %d port %d not drained: depth %d", si, pi, port.Depth())
					}
					enq += port.Enqueued.Window()
					drop += port.Dropped.Window()
				}
			}
			if drop != r.fb.DropsWindow() {
				t.Fatalf("drop ledgers disagree: ports %d, fabric %d", drop, r.fb.DropsWindow())
			}
			// Exact conservation: every copy terminates exactly once.
			extra := r.fb.FloodCopiesWindow() - r.fb.FloodedWindow()
			if delivered+drop+r.fb.StraysWindow() != frames+extra {
				t.Fatalf("conservation: delivered %d + dropped %d + strays %d != offered %d + flood extras %d",
					delivered, drop, r.fb.StraysWindow(), frames, extra)
			}
		})
	}
}

// ECMP path choice is a pure function of (seed, src, dst): the same rig
// replayed gives byte-identical delivery tables, and a different fabric
// seed spreads the same flows differently. With ≥2 spines a many-pair
// load must actually use more than one spine.
func TestFabricECMPDeterminism(t *testing.T) {
	run := func(seed uint64) (string, []uint64) {
		spec := FabricSpec{Kind: KindLeafSpine, HostsPerLeaf: 2, Spines: 3, Seed: seed}
		r := newFabRig(t, 6, 1, DefaultParams(), spec)
		r.learnAll()
		at := r.eng.Now()
		rng := sim.NewRNG(42)
		for i := 0; i < 600; i++ {
			src := rng.Intn(6)
			dst := (src + 1 + rng.Intn(5)) % 6
			f := &ether.Frame{Src: r.macs[src], Dst: r.macs[dst], Size: 300 + rng.Intn(1000), Payload: i}
			at += sim.Time(rng.Intn(20000))
			ii, ff := src, f
			r.eng.At(at, func() { r.ups[ii].Send(ff) })
		}
		r.eng.Run(at + sim.Second)
		r.drain()
		table := ""
		for _, d := range r.order {
			table += fmt.Sprintf("%d<-%v@%d;", d.port, d.f.Payload, d.at)
		}
		// Per-spine forwarded counters fingerprint the ECMP spread.
		var spread []uint64
		for si := 0; si < r.fb.NumSwitches(); si++ {
			spread = append(spread, r.fb.SwitchAt(si).Forwarded().Window())
		}
		return table, spread
	}
	t1, s1 := run(7)
	t2, s2 := run(7)
	if t1 != t2 {
		t.Fatal("same seed produced different delivery tables")
	}
	if fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Fatal("same seed produced different per-switch spreads")
	}
	// Spine switches are indices 3,4,5 (3 leaves then 3 spines): the
	// ECMP hash must spread pairs over more than one spine.
	busy := 0
	for _, n := range s1[3:] {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("ECMP used %d of 3 spines, want ≥2 (spread %v)", busy, s1[3:])
	}
	t3, _ := run(8)
	if t1 == t3 {
		t.Fatal("different fabric seeds produced identical delivery tables — seed not wired into the hash")
	}
}

// Oversubscription must bite: the same cross-leaf offered load delivers
// measurably less through a 4:1 oversubscribed leaf-spine than through
// a non-blocking one, with the missing frames accounted as trunk-port
// drops.
func TestFabricOversubscriptionSaturates(t *testing.T) {
	run := func(oversub float64) (delivered int, drops uint64) {
		spec := FabricSpec{Kind: KindLeafSpine, HostsPerLeaf: 2, Spines: 1, Oversub: oversub}
		p := DefaultParams()
		p.EgressCap = 16
		r := newFabRig(t, 4, 1, p, spec)
		r.learnAll()
		// Hosts 0,1 (leaf 0) blast hosts 2,3 (leaf 1) at access line
		// rate: the shared trunk is the bottleneck iff oversubscribed.
		at := r.eng.Now()
		for i := 0; i < 400; i++ {
			for s := 0; s < 2; s++ {
				r.ups[s].Send(&ether.Frame{Src: r.macs[s], Dst: r.macs[s+2], Size: 1514, Payload: i})
			}
			at += 13 * sim.Microsecond // ~ one 1514B slot at 1 Gb/s
			r.eng.Run(at)
		}
		r.drain()
		return len(r.log[2]) + len(r.log[3]), r.fb.DropsWindow()
	}
	dFast, dropsFast := run(1)
	dSlow, dropsSlow := run(4)
	if dSlow >= dFast {
		t.Fatalf("4:1 oversubscription delivered %d ≥ non-blocking %d", dSlow, dFast)
	}
	if dropsSlow == 0 {
		t.Fatal("oversubscribed trunk never dropped under sustained overload")
	}
	if dropsFast != 0 {
		t.Fatalf("non-blocking fabric dropped %d frames at matched offered load", dropsFast)
	}
}

// Host-port failure through the fabric is dead in both directions on
// the owning leaf, and the global port index maps across leaves.
func TestFabricFailPortBothDirections(t *testing.T) {
	spec := FabricSpec{Kind: KindLeafSpine, HostsPerLeaf: 2, Spines: 2}
	r := newFabRig(t, 4, 1, DefaultParams(), spec)
	r.learnAll()
	r.fb.FailPort(3) // host 3 lives on the second leaf
	for i := 0; i < 10; i++ {
		r.ups[3].Send(&ether.Frame{Src: r.macs[3], Dst: r.macs[0], Size: 300})
		r.ups[0].Send(&ether.Frame{Src: r.macs[0], Dst: r.macs[3], Size: 300})
	}
	r.drain()
	if got := len(r.log[0]); got != 0 {
		t.Fatalf("dead host 3 leaked %d frames to host 0", got)
	}
	if got := len(r.log[3]); got != 0 {
		t.Fatalf("host 3's dead port delivered %d frames", got)
	}
	if r.fb.DropsWindow() == 0 {
		t.Fatal("dead-port traffic not accounted as drops")
	}
	r.fb.RestorePort(3)
	r.ups[3].Send(&ether.Frame{Src: r.macs[3], Dst: r.macs[0], Size: 300})
	r.drain()
	if got := len(r.log[0]); got != 1 {
		t.Fatalf("restored port delivered %d frames to host 0, want 1", got)
	}
}

// Spec parsing, validation and construction errors.
func TestFabricSpecValidation(t *testing.T) {
	for _, s := range []string{"tor", "leafspine", "fattree"} {
		k, err := FabricKinds.Parse(s)
		if err != nil || k.String() != s {
			t.Fatalf("kind %q round-trip: %v %v", s, k, err)
		}
	}
	if _, err := FabricKinds.Parse("mesh"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	bad := []FabricSpec{
		{Kind: FabricKind(9)},
		{Kind: KindLeafSpine, HostsPerLeaf: -1},
		{Kind: KindLeafSpine, Spines: -2},
		{Kind: KindLeafSpine, Oversub: -0.5},
	}
	for _, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Fatalf("spec %+v validated, want error", spec)
		}
		if _, err := NewFabric(sim.New(), DefaultParams(), spec, 2, 1, 0); err == nil {
			t.Fatalf("NewFabric accepted invalid spec %+v", spec)
		}
	}
	if _, err := NewFabric(sim.New(), Params{LinkGbps: -1}, FabricSpec{}, 2, 1, 0); err == nil {
		t.Fatal("NewFabric accepted invalid Params")
	}
	if _, err := NewFabric(sim.New(), DefaultParams(), FabricSpec{}, 0, 1, 0); err == nil {
		t.Fatal("NewFabric accepted zero hosts")
	}
	// Defaults: zero spec fields fill in, ToR suffix stays empty so
	// existing experiment names are unchanged.
	fb, err := NewFabric(sim.New(), DefaultParams(), FabricSpec{Kind: KindLeafSpine}, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fb.Spec(); got.HostsPerLeaf != 2 || got.Spines != 2 || got.Oversub != 1 {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if (FabricSpec{}).Suffix() != "" {
		t.Fatal("ToR suffix must be empty")
	}
	if s := (FabricSpec{Kind: KindLeafSpine, Oversub: 4}).Suffix(); s != "-leafspine-l2-s2-o4" {
		t.Fatalf("suffix = %q", s)
	}
}

// A ToR-kind fabric is one Switch with bridge semantics: its counters,
// ports and fault handling behave exactly like the classic single
// switch (the golden tables of PRs 6–9 ride on this).
func TestFabricToRMatchesSwitch(t *testing.T) {
	r := newFabRig(t, 3, 1, DefaultParams(), FabricSpec{})
	if r.fb.NumSwitches() != 1 || r.fb.NumTrunks() != 0 {
		t.Fatalf("ToR fabric has %d switches, %d trunks", r.fb.NumSwitches(), r.fb.NumTrunks())
	}
	r.learnAll()
	r.ups[0].Send(&ether.Frame{Src: r.macs[0], Dst: r.macs[2], Size: 1514})
	r.drain()
	if len(r.log[2]) != 1 || r.fb.ForwardedWindow() != 1 || r.fb.FloodedWindow() != 0 {
		t.Fatalf("ToR unicast: deliveries %d, forwarded %d, flooded %d",
			len(r.log[2]), r.fb.ForwardedWindow(), r.fb.FloodedWindow())
	}
}
