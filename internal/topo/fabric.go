package topo

import (
	"fmt"

	"cdna/internal/enum"
	"cdna/internal/ether"
	"cdna/internal/sim"
)

// FabricKind selects the fabric topology preset.
type FabricKind int

const (
	// KindToR is the classic single top-of-rack switch every host
	// plugs into — the evaluation fabric of PRs 6–9 and the default.
	KindToR FabricKind = iota
	// KindLeafSpine is a two-tier Clos: hosts attach to leaf switches,
	// every leaf trunks to every spine, and cross-leaf flows are ECMP
	// hashed over the spines.
	KindLeafSpine
	// KindFatTree is a three-tier fat-tree: edge switches in pods of
	// two, Spines aggregation switches per pod, and one core per
	// aggregation stripe (core j connects aggregation j of every pod).
	KindFatTree
)

// FabricKinds is the fabric kind's token table, also its String form:
// tor | leafspine | fattree.
var FabricKinds = enum.New[FabricKind]("topo", "fabric kind", "tor|", "leafspine", "fattree")

func (k FabricKind) String() string { return FabricKinds.String(k) }

// MarshalText encodes the kind as its token (campaign specs, JSON
// results).
func (k FabricKind) MarshalText() ([]byte, error) { return FabricKinds.MarshalText(k) }

// UnmarshalText decodes a kind token.
func (k *FabricKind) UnmarshalText(b []byte) error { return FabricKinds.UnmarshalText(b, k) }

// FabricSpec configures a fabric shape. The zero value is the classic
// single ToR. All fields are scalars so the spec can sit inside a
// comparable benchmark Config (campaign grids key on it).
type FabricSpec struct {
	// Kind selects the topology preset.
	Kind FabricKind `json:"kind"`
	// HostsPerLeaf is how many hosts share one leaf/edge switch
	// (multiplied by the NIC count for the port roster). 0 defaults
	// to 2. Ignored by KindToR.
	HostsPerLeaf int `json:"hosts_per_leaf,omitempty"`
	// Spines is the spine count (leaf-spine) or the per-pod
	// aggregation count, which also fixes the core count (fat-tree).
	// 0 defaults to 2. Ignored by KindToR.
	Spines int `json:"spines,omitempty"`
	// Oversub is the per-tier oversubscription ratio: each switch's
	// total uplink bandwidth is its downlink bandwidth divided by
	// Oversub. 0 defaults to 1 (non-blocking); >1 starves the trunks
	// the way real aggregation tiers do. Ignored by KindToR.
	Oversub float64 `json:"oversub,omitempty"`
	// Seed salts the per-switch ECMP hash so distinct experiments
	// spread flow pairs differently; results are byte-identical for a
	// given seed.
	Seed uint64 `json:"seed,omitempty"`
}

// withDefaults fills the zero fields of a validated spec.
func (fs FabricSpec) withDefaults() FabricSpec {
	if fs.HostsPerLeaf == 0 {
		fs.HostsPerLeaf = 2
	}
	if fs.Spines == 0 {
		fs.Spines = 2
	}
	if fs.Oversub == 0 {
		fs.Oversub = 1
	}
	return fs
}

// Validate rejects specs that cannot build a sane fabric. Zero values
// mean "use the default" and always pass.
func (fs FabricSpec) Validate() error {
	if fs.Kind < KindToR || fs.Kind > KindFatTree {
		return fmt.Errorf("topo: unknown fabric kind %d", int(fs.Kind))
	}
	if fs.HostsPerLeaf < 0 {
		return fmt.Errorf("topo: HostsPerLeaf must be non-negative, got %d", fs.HostsPerLeaf)
	}
	if fs.Spines < 0 {
		return fmt.Errorf("topo: Spines must be non-negative, got %d", fs.Spines)
	}
	if fs.Oversub < 0 {
		return fmt.Errorf("topo: Oversub must be non-negative, got %g", fs.Oversub)
	}
	return nil
}

// Suffix returns the config-name fragment for a non-default spec
// ("" for the classic ToR, so existing experiment names are unchanged).
func (fs FabricSpec) Suffix() string {
	if fs.Kind == KindToR {
		return ""
	}
	fs = fs.withDefaults()
	s := fmt.Sprintf("-%s-l%d-s%d", fs.Kind, fs.HostsPerLeaf, fs.Spines)
	if fs.Oversub != 1 {
		s += fmt.Sprintf("-o%g", fs.Oversub)
	}
	return s
}

// fabricPort maps a global host-facing port index onto a member switch.
type fabricPort struct {
	sw   *Switch
	port int
}

// Fabric is a composed multi-switch topology behind one host-facing
// port roster: hosts attach through AddPort exactly as they do to a
// single Switch, and the builder wires the tiers, trunks and ECMP
// behind them. A KindToR fabric is one Switch with zero added
// mechanism, so the classic rack results are unchanged byte for byte.
//
// Trunk pipes use keyed delivery sequencing like every other fabric
// pipe, so same-instant trunk arrivals order by (pipe, sequence) — a
// pure function of traffic, not of scheduling order.
type Fabric struct {
	eng  *sim.Engine
	p    Params
	spec FabricSpec

	switches  []*Switch // leaves/edges first, then aggs, then cores
	leaves    []*Switch
	hostPorts []fabricPort
	trunks    []*ether.Pipe // every trunk simplex pipe, for accounting

	hosts, nics int
	nextKey     int
}

// NewFabric builds the configured topology: the member switches and
// their trunk links. Host links attach afterwards through AddPort, in
// global port order (host-major, then NIC). hosts and nics size the
// leaf tier; keyBase is the first free keyed-pipe ID (the bench layer
// owns IDs below it for access links). Params and spec must validate.
func NewFabric(eng *sim.Engine, p Params, spec FabricSpec, hosts, nics, keyBase int) (*Fabric, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if hosts < 1 || nics < 1 {
		return nil, fmt.Errorf("topo: fabric needs hosts >= 1 and nics >= 1, got %d/%d", hosts, nics)
	}
	spec = spec.withDefaults()
	fb := &Fabric{eng: eng, p: p, spec: spec, hosts: hosts, nics: nics, nextKey: keyBase}
	switch spec.Kind {
	case KindToR:
		sw := New(eng, p)
		fb.adopt(sw)
		fb.leaves = []*Switch{sw}
	case KindLeafSpine:
		fb.buildLeafSpine()
	case KindFatTree:
		fb.buildFatTree()
	}
	return fb, nil
}

// adopt registers a member switch and derives its ECMP seed from the
// fabric seed and the switch's build index.
func (fb *Fabric) adopt(sw *Switch) {
	sw.SetECMPSeed(ecmpHash(fb.spec.Seed, ether.MakeMAC(0, len(fb.switches)), ether.MAC{}))
	fb.switches = append(fb.switches, sw)
}

// trunk wires one full-duplex keyed trunk: lower sends up on AtoB and
// receives BtoA; upper is the mirror. The lower side's port is an
// uplink (valley-free ECMP member); the upper side's is a plain
// down-facing port.
func (fb *Fabric) trunk(lower, upper *Switch, gbps float64) {
	l := ether.NewDuplex(fb.eng, gbps, fb.p.PropDelay)
	l.AtoB.EnableKeyed(fb.nextKey)
	l.BtoA.EnableKeyed(fb.nextKey + 1)
	fb.nextKey += 2
	lower.AddUplink(l.BtoA, l.AtoB)
	upper.AddPort(l.AtoB, l.BtoA)
	fb.trunks = append(fb.trunks, l.AtoB, l.BtoA)
}

// leafCount returns how many leaf/edge switches the spec needs.
func (fb *Fabric) leafCount() int {
	n := (fb.hosts + fb.spec.HostsPerLeaf - 1) / fb.spec.HostsPerLeaf
	if n < 1 {
		n = 1
	}
	return n
}

// uplinkGbps is the per-trunk rate of a switch with downGbps of total
// downlink bandwidth and n uplinks under the configured
// oversubscription ratio.
func (fb *Fabric) uplinkGbps(downGbps float64, n int) float64 {
	return downGbps / (fb.spec.Oversub * float64(n))
}

// buildLeafSpine creates the two-tier Clos: every leaf trunks to every
// spine. Switch order (leaves, then spines) and trunk order (leaf-major)
// fix the keyed-pipe IDs and ECMP seeds.
func (fb *Fabric) buildLeafSpine() {
	nl := fb.leafCount()
	for i := 0; i < nl; i++ {
		sw := New(fb.eng, fb.p)
		fb.adopt(sw)
		fb.leaves = append(fb.leaves, sw)
	}
	spines := make([]*Switch, fb.spec.Spines)
	for i := range spines {
		spines[i] = New(fb.eng, fb.p)
		fb.adopt(spines[i])
	}
	down := float64(fb.spec.HostsPerLeaf*fb.nics) * fb.p.LinkGbps
	up := fb.uplinkGbps(down, fb.spec.Spines)
	for _, leaf := range fb.leaves {
		for _, spine := range spines {
			fb.trunk(leaf, spine, up)
		}
	}
}

// buildFatTree creates the three-tier fat-tree: edges in pods of two,
// Spines aggregation switches per pod, and one core per aggregation
// stripe — core j connects aggregation j of every pod, so each pod has
// exactly one path to each core and floods cannot re-enter their
// source pod.
func (fb *Fabric) buildFatTree() {
	const podEdges = 2
	ne := fb.leafCount()
	pods := (ne + podEdges - 1) / podEdges
	for i := 0; i < ne; i++ {
		sw := New(fb.eng, fb.p)
		fb.adopt(sw)
		fb.leaves = append(fb.leaves, sw)
	}
	aggs := make([][]*Switch, pods) // aggs[pod][j]
	for p := 0; p < pods; p++ {
		aggs[p] = make([]*Switch, fb.spec.Spines)
		for j := range aggs[p] {
			aggs[p][j] = New(fb.eng, fb.p)
			fb.adopt(aggs[p][j])
		}
	}
	cores := make([]*Switch, fb.spec.Spines)
	for j := range cores {
		cores[j] = New(fb.eng, fb.p)
		fb.adopt(cores[j])
	}
	edgeDown := float64(fb.spec.HostsPerLeaf*fb.nics) * fb.p.LinkGbps
	edgeUp := fb.uplinkGbps(edgeDown, fb.spec.Spines)
	for e, edge := range fb.leaves {
		for _, agg := range aggs[e/podEdges] {
			fb.trunk(edge, agg, edgeUp)
		}
	}
	aggUp := fb.uplinkGbps(float64(podEdges)*edgeUp, 1)
	for p := 0; p < pods; p++ {
		for j, agg := range aggs[p] {
			fb.trunk(agg, cores[j], aggUp)
		}
	}
}

// Params returns the fabric constants.
func (fb *Fabric) Params() Params { return fb.p }

// Spec returns the (defaulted) fabric spec.
func (fb *Fabric) Spec() FabricSpec { return fb.spec }

// AddPort attaches the next host access link, in global port order
// (host-major, then NIC): port h*nics+i lands on the leaf serving host
// h. Wiring matches Switch.AddPort; the returned index is global.
func (fb *Fabric) AddPort(in, out *ether.Pipe) int {
	g := len(fb.hostPorts)
	leaf := fb.leaves[0]
	if fb.spec.Kind != KindToR {
		li := (g / fb.nics) / fb.spec.HostsPerLeaf
		if li >= len(fb.leaves) {
			li = len(fb.leaves) - 1
		}
		leaf = fb.leaves[li]
	}
	id := leaf.AddPort(in, out)
	fb.hostPorts = append(fb.hostPorts, fabricPort{sw: leaf, port: id})
	return g
}

// NumPorts returns the number of host-facing ports.
func (fb *Fabric) NumPorts() int { return len(fb.hostPorts) }

// Port returns host-facing port i (global index).
func (fb *Fabric) Port(i int) *Port {
	hp := fb.hostPorts[i]
	return hp.sw.Port(hp.port)
}

// FailPort kills host-facing port i in both directions on its leaf.
func (fb *Fabric) FailPort(i int) {
	hp := fb.hostPorts[i]
	hp.sw.FailPort(hp.port)
}

// RestorePort revives host-facing port i.
func (fb *Fabric) RestorePort(i int) {
	hp := fb.hostPorts[i]
	hp.sw.RestorePort(hp.port)
}

// NumSwitches returns the member-switch count (1 for KindToR).
func (fb *Fabric) NumSwitches() int { return len(fb.switches) }

// SwitchAt returns member switch i in build order (leaves/edges first,
// then aggregations, then cores).
func (fb *Fabric) SwitchAt(i int) *Switch { return fb.switches[i] }

// NumTrunks returns the number of trunk simplex pipes.
func (fb *Fabric) NumTrunks() int { return len(fb.trunks) }

// NextKey returns the first keyed-pipe ID above the fabric's own.
func (fb *Fabric) NextKey() int { return fb.nextKey }

// Lookup returns (switch index, port) where the fabric's leaf tier has
// learned a MAC, or (-1, -1). Spine/core entries are ignored — the
// leaves are where stations live.
func (fb *Fabric) Lookup(m ether.MAC) (int, int) {
	for i, sw := range fb.leaves {
		if p := sw.Lookup(m); p >= 0 {
			return i, p
		}
	}
	return -1, -1
}

// StartWindow restarts every member switch's windowed counters.
func (fb *Fabric) StartWindow() {
	for _, sw := range fb.switches {
		sw.StartWindow()
	}
}

// DropsWindow sums the windowed drop count over all member switches
// (egress tail drops, dead-port drops — at host ports and trunks).
func (fb *Fabric) DropsWindow() uint64 {
	var n uint64
	for _, sw := range fb.switches {
		n += sw.Drops.Window()
	}
	return n
}

// InputsWindow sums the windowed accepted-ingress count.
func (fb *Fabric) InputsWindow() uint64 {
	var n uint64
	for _, sw := range fb.switches {
		n += sw.Inputs.Window()
	}
	return n
}

// ForwardedWindow sums the windowed known-unicast forward count.
func (fb *Fabric) ForwardedWindow() uint64 {
	var n uint64
	for _, sw := range fb.switches {
		n += sw.Forwarded().Window()
	}
	return n
}

// FloodedWindow sums the windowed flood count.
func (fb *Fabric) FloodedWindow() uint64 {
	var n uint64
	for _, sw := range fb.switches {
		n += sw.Flooded().Window()
	}
	return n
}

// FloodCopiesWindow sums the windowed flood-recipient count; minus
// FloodedWindow it is the number of extra frame copies flooding
// created, the term that closes the fabric-wide conservation ledger.
func (fb *Fabric) FloodCopiesWindow() uint64 {
	var n uint64
	for _, sw := range fb.switches {
		n += sw.bridge.FloodCopies.Window()
	}
	return n
}

// MovesWindow sums the windowed station-move count (down-facing
// re-learns only; uplink flaps are not moves).
func (fb *Fabric) MovesWindow() uint64 {
	var n uint64
	for _, sw := range fb.switches {
		n += sw.Moves().Window()
	}
	return n
}

// StraysWindow sums the windowed stray count (frames released by the
// valley-free rule).
func (fb *Fabric) StraysWindow() uint64 {
	var n uint64
	for _, sw := range fb.switches {
		n += sw.Strays.Window()
	}
	return n
}

// MaxDepth returns the deepest egress high-water mark over every port
// of every member switch (host ports and trunks alike) since the last
// StartWindow.
func (fb *Fabric) MaxDepth() int {
	max := 0
	for _, sw := range fb.switches {
		for i := 0; i < sw.NumPorts(); i++ {
			if d := sw.Port(i).MaxDepth(); d > max {
				max = d
			}
		}
	}
	return max
}
