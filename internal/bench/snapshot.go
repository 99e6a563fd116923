package bench

import (
	"fmt"

	"cdna/internal/backend"
	"cdna/internal/bus"
	"cdna/internal/core"
	"cdna/internal/cpu"
	"cdna/internal/ether"
	"cdna/internal/guest"
	"cdna/internal/intelnic"
	"cdna/internal/mem"
	"cdna/internal/ricenic"
	"cdna/internal/sim"
	"cdna/internal/snap"
	"cdna/internal/topo"
	"cdna/internal/transport"
	"cdna/internal/workload"
	"cdna/internal/xen"
)

// segCodec is the machine's ether.PayloadCodec: every frame payload in
// this simulator is a *transport.Segment, and a segment's portable
// identity is its connection's index in the machine's group (Conn.ID ==
// group index by construction — see wireConns/wireCross).
type segCodec struct {
	conns *transport.Group
}

// EncodePayload serializes a frame payload for a checkpoint.
func (c segCodec) EncodePayload(p any) ([]byte, error) {
	seg, ok := p.(*transport.Segment)
	if !ok {
		return nil, fmt.Errorf("bench: frame payload is %T, want segment", p)
	}
	id := seg.Conn.ID
	if id < 0 || id >= len(c.conns.Conns) || c.conns.Conns[id] != seg.Conn {
		return nil, fmt.Errorf("bench: segment's connection %d is not in the machine's group", id)
	}
	return transport.EncodeSegment(seg, id), nil
}

// DecodePayload materializes a frame payload from its checkpoint bytes.
func (c segCodec) DecodePayload(b []byte) (any, error) {
	idx, seg, err := transport.DecodeSegment(b)
	if err != nil {
		return nil, err
	}
	if idx < 0 || idx >= len(c.conns.Conns) {
		return nil, fmt.Errorf("bench: segment image references connection %d of %d", idx, len(c.conns.Conns))
	}
	seg.Conn = c.conns.Conns[idx]
	return seg, nil
}

// hypState is a host's virtualization-layer image: the hypervisor
// proper plus the CDNA protection engine it owns.
type hypState struct {
	Xen  xen.State
	Prot core.ProtectionState
}

// hostState is one host's checkpoint image. Every slice mirrors the
// Host roster of the same name; identity is creation order, which
// deterministic construction reproduces.
type hostState struct {
	CPU        cpu.CPUState
	Mem        mem.State
	Hyp        *hypState // nil in native mode
	Buses      []bus.State
	Links      []ether.PipeState
	Intel      []intelnic.State
	Rice       []ricenic.State
	CtxMgrs    []core.ContextManagerState
	Drivers    []guest.CDNADriverState
	NativeDrvs []guest.NativeDriverState
	Netbacks   []backend.State
	Stacks     []guest.StackState
}

// machineState is the whole testbed's checkpoint image: the engine's
// queue, every host, the fabric (multi-host only), every benchmark
// connection, the workload generator, and the fault injector's phase.
// The injector's spec is deliberately absent — it is re-derived from
// the restoring configuration, which is what lets a fault variant
// restore its fault-free base's warmup snapshot.
type machineState struct {
	Engine     sim.EngineState
	Hosts      []hostState
	Fabric     *topo.FabricState // nil for single-host
	Conns      []transport.ConnState
	Work       workload.GeneratorState
	FaultPhase int
}

// state captures one host.
func (h *Host) state(codec ether.PayloadCodec) (hostState, error) {
	cs, err := h.CPU.State()
	if err != nil {
		return hostState{}, err
	}
	hs := hostState{
		CPU:        cs,
		Mem:        h.Mem.State(),
		Buses:      make([]bus.State, len(h.Buses)),
		Links:      make([]ether.PipeState, len(h.Links)),
		Intel:      make([]intelnic.State, len(h.IntelNICs)),
		Rice:       make([]ricenic.State, len(h.RiceNICs)),
		CtxMgrs:    make([]core.ContextManagerState, len(h.CtxMgrs)),
		Drivers:    make([]guest.CDNADriverState, len(h.Drivers)),
		NativeDrvs: make([]guest.NativeDriverState, len(h.NativeDrvs)),
		Netbacks:   make([]backend.State, len(h.Netbacks)),
		Stacks:     make([]guest.StackState, len(h.Stacks)),
	}
	if h.Hyp != nil {
		xs, err := h.Hyp.State()
		if err != nil {
			return hostState{}, err
		}
		hs.Hyp = &hypState{Xen: xs, Prot: h.Hyp.Prot.State()}
	}
	for i, b := range h.Buses {
		hs.Buses[i] = b.State()
	}
	for i, l := range h.Links {
		if hs.Links[i], err = l.State(codec); err != nil {
			return hostState{}, err
		}
	}
	for i, n := range h.IntelNICs {
		if hs.Intel[i], err = n.State(codec); err != nil {
			return hostState{}, err
		}
	}
	for i, n := range h.RiceNICs {
		if hs.Rice[i], err = n.State(codec); err != nil {
			return hostState{}, err
		}
	}
	for i, cm := range h.CtxMgrs {
		hs.CtxMgrs[i] = cm.State()
	}
	for i, d := range h.Drivers {
		if hs.Drivers[i], err = d.State(codec); err != nil {
			return hostState{}, err
		}
	}
	for i, d := range h.NativeDrvs {
		if hs.NativeDrvs[i], err = d.State(codec); err != nil {
			return hostState{}, err
		}
	}
	for i, nb := range h.Netbacks {
		if hs.Netbacks[i], err = nb.State(codec); err != nil {
			return hostState{}, err
		}
	}
	for i, st := range h.Stacks {
		if hs.Stacks[i], err = st.State(codec); err != nil {
			return hostState{}, err
		}
	}
	return hs, nil
}

// setState restores one host.
func (h *Host) setState(hs hostState, codec ether.PayloadCodec) error {
	if len(hs.Buses) != len(h.Buses) || len(hs.Links) != len(h.Links) ||
		len(hs.Intel) != len(h.IntelNICs) || len(hs.Rice) != len(h.RiceNICs) ||
		len(hs.CtxMgrs) != len(h.CtxMgrs) || len(hs.Drivers) != len(h.Drivers) ||
		len(hs.NativeDrvs) != len(h.NativeDrvs) || len(hs.Netbacks) != len(h.Netbacks) ||
		len(hs.Stacks) != len(h.Stacks) {
		return fmt.Errorf("bench: host %d component roster mismatch", h.Index)
	}
	if (hs.Hyp == nil) != (h.Hyp == nil) {
		return fmt.Errorf("bench: host %d hypervisor presence mismatch", h.Index)
	}
	if err := h.CPU.SetState(hs.CPU); err != nil {
		return err
	}
	h.Mem.SetState(hs.Mem)
	if h.Hyp != nil {
		if err := h.Hyp.SetState(hs.Hyp.Xen); err != nil {
			return err
		}
		if err := h.Hyp.Prot.SetState(hs.Hyp.Prot); err != nil {
			return err
		}
	}
	for i, b := range h.Buses {
		b.SetState(hs.Buses[i])
	}
	for i, l := range h.Links {
		if err := l.SetState(hs.Links[i], codec); err != nil {
			return err
		}
	}
	for i, n := range h.IntelNICs {
		if err := n.SetState(hs.Intel[i], codec); err != nil {
			return err
		}
	}
	for i, n := range h.RiceNICs {
		if err := n.SetState(hs.Rice[i], codec); err != nil {
			return err
		}
	}
	for i, cm := range h.CtxMgrs {
		if err := cm.SetState(hs.CtxMgrs[i]); err != nil {
			return err
		}
	}
	for i, d := range h.Drivers {
		if err := d.SetState(hs.Drivers[i], codec); err != nil {
			return err
		}
	}
	for i, d := range h.NativeDrvs {
		if err := d.SetState(hs.NativeDrvs[i], codec); err != nil {
			return err
		}
	}
	for i, nb := range h.Netbacks {
		if err := nb.SetState(hs.Netbacks[i], codec); err != nil {
			return err
		}
	}
	for i, st := range h.Stacks {
		if err := st.SetState(hs.Stacks[i], codec); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot checkpoints the whole machine into a versioned image. The
// machine must be quiescent (between Run calls); a snapshot taken
// mid-Run would miss the event being fired.
func (m *Machine) Snapshot() ([]byte, error) {
	codec := segCodec{conns: &m.Conns}
	es, err := m.Eng.Snapshot()
	if err != nil {
		return nil, err
	}
	st := machineState{
		Engine:     es,
		Hosts:      make([]hostState, len(m.Hosts)),
		Conns:      make([]transport.ConnState, len(m.Conns.Conns)),
		Work:       m.Work.State(),
		FaultPhase: m.faults.phase,
	}
	for i, h := range m.Hosts {
		if st.Hosts[i], err = h.state(codec); err != nil {
			return nil, err
		}
	}
	if m.Fabric != nil {
		fs, err := m.Fabric.State(codec)
		if err != nil {
			return nil, err
		}
		st.Fabric = &fs
	}
	for i, c := range m.Conns.Conns {
		st.Conns[i] = c.State()
	}
	return snap.Encode(snap.Header{
		Config: m.cfg.Name(),
		Binds:  es.Binds,
		Timers: es.Timers,
	}, st)
}

// Restore loads a snapshot image into a freshly built (not yet
// launched) machine. The image must come from this machine's own
// configuration or from its warm-start base — the same configuration
// with the fault scenario zeroed (see RunWarmForked): a fault variant
// builds an identical machine because the injector exists either way
// and only arms at window open.
func (m *Machine) Restore(b []byte) error {
	// The header is checked before the state is decoded, so an image of
	// another format version fails with a version error rather than a
	// gob type mismatch.
	h, err := snap.DecodeHeader(b)
	if err != nil {
		return err
	}
	binds, timers := m.Fingerprint()
	if err := h.Compatible(binds, timers, m.cfg.Name(), warmBase(m.cfg).Name()); err != nil {
		return err
	}
	var st machineState
	if _, err := snap.Decode(b, &st); err != nil {
		return err
	}
	codec := segCodec{conns: &m.Conns}
	if len(st.Hosts) != len(m.Hosts) {
		return fmt.Errorf("bench: snapshot has %d hosts, machine has %d", len(st.Hosts), len(m.Hosts))
	}
	if (st.Fabric == nil) != (m.Fabric == nil) {
		return fmt.Errorf("bench: snapshot/machine fabric presence mismatch")
	}
	if len(st.Conns) != len(m.Conns.Conns) {
		return fmt.Errorf("bench: snapshot has %d connections, machine has %d", len(st.Conns), len(m.Conns.Conns))
	}
	for i, hh := range m.Hosts {
		if err := hh.setState(st.Hosts[i], codec); err != nil {
			return err
		}
	}
	if m.Fabric != nil {
		if err := m.Fabric.SetState(*st.Fabric, codec); err != nil {
			return err
		}
	}
	for i, c := range m.Conns.Conns {
		c.SetState(st.Conns[i])
	}
	if err := m.Work.SetState(st.Work); err != nil {
		return err
	}
	// Re-derive the injector's spec from this machine's configuration
	// (the image deliberately omits it); the phase is the image's. A
	// warm base image carries phase 0, so a fault variant restoring it
	// arms its own spec at window open.
	m.faults.spec = m.cfg.Fault
	m.faults.phase = st.FaultPhase
	// The engine goes last: restoring its queue re-arms every timer the
	// layer restores above rely on, and its registry checks are the
	// final word on whether this machine really is the snapshot's twin.
	return m.Eng.Restore(st.Engine)
}

// warmBase returns the warm-start base of a configuration: the same
// machine with no fault scenario. A config and its warmBase build
// byte-identical machines through the warmup (faults only arm at
// window open), so every fault variant of a grid point can fork one
// shared warmup snapshot instead of re-simulating the warmup.
func warmBase(cfg Config) Config {
	cfg.Fault = FaultSpec{}
	return cfg
}
