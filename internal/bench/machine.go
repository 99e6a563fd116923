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
	"cdna/internal/ring"
	"cdna/internal/sim"
	"cdna/internal/topo"
	"cdna/internal/transport"
	"cdna/internal/workload"
	"cdna/internal/xen"
)

// Mode selects the I/O virtualization architecture.
type Mode int

// Machine modes.
const (
	ModeNative Mode = iota // no VMM: host OS drives the NICs (Table 1)
	ModeXen                // Xen software I/O virtualization (§2)
	ModeCDNA               // concurrent direct network access (§3)
)

func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "Native"
	case ModeXen:
		return "Xen"
	case ModeCDNA:
		return "CDNA"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// NICKind selects the device model.
type NICKind int

// NIC kinds.
const (
	NICIntel NICKind = iota // conventional Intel Pro/1000-style NIC
	NICRice                 // CDNA-capable RiceNIC
)

func (k NICKind) String() string {
	if k == NICIntel {
		return "Intel"
	}
	return "RiceNIC"
}

// Direction selects the traffic direction under test.
type Direction int

// Traffic directions.
const (
	Tx Direction = iota // guests transmit to the peer
	Rx                  // guests receive from the peer
	// Both runs full-duplex traffic — an extension beyond the paper's
	// unidirectional evaluation (each guest gets a transmit and a
	// receive connection set per NIC).
	Both
)

func (d Direction) String() string {
	switch d {
	case Tx:
		return "transmit"
	case Rx:
		return "receive"
	case Both:
		return "duplex"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Host is one physical machine on the fabric: its CPU, memory,
// hypervisor (nil in native mode), NICs, guest stacks and drivers. The
// classic single-host experiment is one Host plus the CPU-less peer;
// multi-host configurations (Config.Hosts > 1) assemble N of these onto
// a simulated top-of-rack switch (internal/topo).
type Host struct {
	Index int
	CPU   *cpu.CPU
	Mem   *mem.Memory
	Hyp   *xen.Hypervisor // nil in native mode

	IntelNICs []*intelnic.NIC
	RiceNICs  []*ricenic.NIC
	CtxMgrs   []*core.ContextManager // per RiceNIC
	Drivers   []*guest.CDNADriver    // CDNA drivers on this host
	Stacks    []*guest.Stack         // one per guest (native: the host OS)

	// Links is every access-link pipe built into the host, both
	// directions, in NIC order: window counters and link faults walk it.
	Links []*ether.Pipe

	guestDoms []*xen.Domain
	dom0      *xen.Domain

	// devs is the wiring roster: devs[guest][nic] is the guest-visible
	// network device, the attachment point for benchmark connections.
	devs [][]guest.NetDevice
}

// Machine is an assembled testbed: the system under test (one host plus
// the external peer, or a whole rack on a switched fabric), its NICs,
// and the benchmark connections. The flat NIC/driver slices aggregate
// over all hosts in host order, so single-host callers are unaffected
// by the multi-host extension.
type Machine struct {
	Eng   *sim.Engine
	CPU   *cpu.CPU        // host 0's CPU
	Mem   *mem.Memory     // host 0's memory
	Hyp   *xen.Hypervisor // host 0's hypervisor; nil in native mode
	Conns transport.Group
	// Work drives traffic over the connections according to the
	// configuration's workload spec.
	Work *workload.Generator

	// Hosts are the machines under test, in index order. Single-host
	// configurations have exactly one.
	Hosts []*Host
	// Fabric is the switch fabric connecting the hosts — the classic
	// single ToR or a composed leaf-spine/fat-tree (cfg.Fabric); nil for
	// the classic single-host topology (whose far end is the peer).
	Fabric *topo.Fabric

	IntelNICs []*intelnic.NIC
	RiceNICs  []*ricenic.NIC
	CtxMgrs   []*core.ContextManager // per RiceNIC
	Drivers   []*guest.CDNADriver    // all CDNA drivers (ordered by host, guest, NIC)

	// Tracer is attached by RunTraced (cdnasim -trace).
	Tracer *sim.Tracer

	// arena and segPool recycle frames and transport segments for every
	// stack, peer and connection endpoint on the machine's engine.
	arena   *ether.Arena
	segPool *transport.SegPool

	cfg    Config
	faults *faultInjector
}

// hostEnv is the assembly context a per-mode host builder runs in: it
// hides whether the host's links terminate at the CPU-less peer (the
// classic topology) or at a switch port (multi-host), and how MACs and
// domain names are made unique across hosts. One builder path serves
// both fabrics.
type hostEnv struct {
	eng *sim.Engine
	h   *Host

	// newLink allocates the host's next access link and returns
	// (nicOut, hostIn): the pipe the host NIC transmits into, and the
	// pipe that delivers fabric frames to the host (the builder connects
	// it to the NIC's Receive).
	newLink func() (*ether.Pipe, *ether.Pipe)

	// wire attaches benchmark connections for the guest stack's device
	// on NIC nicIdx. nil when wiring is deferred (multi-host patterns
	// wire after every host exists).
	wire func(st *guest.Stack, guestIdx, nicIdx int, dev guest.NetDevice) error

	// name qualifies a domain name with the host identity (identity for
	// single-host, "hN." prefixed for multi-host).
	name func(string) string

	// macIndex folds the host index into a MakeMAC index so device
	// addresses stay unique across the fabric (identity for
	// single-host).
	macIndex func(int) int
}

// peer is the traffic generator/sink machine on the far end of every
// link in the single-host topology. The paper tuned it to never be the
// bottleneck; here it has no CPU model at all.
type peer struct {
	outs  []*ether.Pipe
	macs  []ether.MAC
	arena *ether.Arena
}

func (p *peer) port(i int) ether.Port {
	return ether.PortFunc(func(f *ether.Frame) {
		// Dispatch while the frame still owns its payload reference,
		// then drop the frame (the peer has no CPU and no queues).
		if seg, ok := f.Payload.(*transport.Segment); ok {
			transport.Dispatch(seg)
		}
		f.Release()
	})
}

// sender returns a transport transmit function pushing frames onto link
// i toward dst.
func (p *peer) sender(i int, dst ether.MAC) func(*transport.Segment) {
	out := p.outs[i]
	src := p.macs[i]
	return func(seg *transport.Segment) {
		if p.arena != nil {
			out.Send(p.arena.Get(src, dst, seg.FrameBytes(), seg))
			return
		}
		out.Send(&ether.Frame{Src: src, Dst: dst, Size: seg.FrameBytes(), Payload: seg})
	}
}

// makeRings allocates a tx/rx descriptor ring pair in the domain's
// memory.
func makeRings(m *mem.Memory, dom mem.DomID, name string) (*ring.Ring, *ring.Ring, error) {
	pages := (guest.RingEntries*ring.DefaultLayout.Size + mem.PageSize - 1) / mem.PageSize
	tx, err := ring.New(name+".tx", ring.DefaultLayout, m.Alloc(dom, pages)[0].Base(), guest.RingEntries)
	if err != nil {
		return nil, nil, err
	}
	rx, err := ring.New(name+".rx", ring.DefaultLayout, m.Alloc(dom, pages)[0].Base(), guest.RingEntries)
	if err != nil {
		return nil, nil, err
	}
	return tx, rx, nil
}

// startBackground models housekeeping daemons in a domain: one
// persistent timer re-armed in place per tick.
func startBackground(eng *sim.Engine, d *cpu.Domain, period, kernel, user sim.Time) {
	var tm *sim.Timer
	tm = eng.NewTimer("bg", func() {
		d.Exec(cpu.CatKernel, kernel, "bg.kernel", sim.Fn{})
		d.Exec(cpu.CatUser, user, "bg.user", sim.Fn{})
		tm.ArmAfter(period)
	})
	tm.ArmAfter(period)
}

// identity is the single-host hostEnv name/macIndex mapping.
func identity(s string) string { return s }
func identityIdx(i int) int    { return i }

// Build assembles a machine for the configuration: the classic
// host-plus-peer testbed, or — when cfg.Hosts > 1 — a rack of hosts on
// a switched fabric (cluster.go).
func Build(cfg Config) (*Machine, error) {
	if cfg.Hosts > 1 {
		return buildCluster(cfg)
	}
	m, err := newMachine(cfg)
	if err != nil {
		return nil, err
	}
	eng := m.Eng
	h := &Host{Index: 0, CPU: cpu.New(eng, cfg.Cal.CPU), Mem: mem.New()}
	m.CPU, m.Mem, m.Hosts = h.CPU, h.Mem, []*Host{h}
	pr := &peer{arena: m.arena}

	// Pre-size every builder-filled slice: the topology's final counts
	// are implied by the configuration, so the assembly loops below
	// never re-grow a backing array. (Conns gets an upper bound: one
	// connection per slot in the configured direction, or a pair for
	// duplex and request/response wiring.)
	stacks := cfg.Guests
	if cfg.Mode == ModeNative {
		stacks = 1
	}
	m.Conns.Grow(stacks * cfg.NICs * cfg.ConnsPerGuestPerNIC * 2)
	h.IntelNICs = make([]*intelnic.NIC, 0, cfg.NICs)
	h.RiceNICs = make([]*ricenic.NIC, 0, cfg.NICs)
	h.CtxMgrs = make([]*core.ContextManager, 0, cfg.NICs)
	h.Drivers = make([]*guest.CDNADriver, 0, stacks*cfg.NICs)
	pr.outs = make([]*ether.Pipe, 0, cfg.NICs)
	pr.macs = make([]ether.MAC, 0, cfg.NICs)

	env := hostEnv{
		eng: eng,
		h:   h,
		// Links and peer ports, one per NIC.
		newLink: func() (*ether.Pipe, *ether.Pipe) {
			l := ether.NewDuplex(eng, 1.0, 500*sim.Nanosecond)
			i := len(pr.outs)
			pr.outs = append(pr.outs, l.BtoA)
			pr.macs = append(pr.macs, ether.MakeMAC(200, i))
			l.AtoB.Connect(pr.port(i))
			h.Links = append(h.Links, l.AtoB, l.BtoA)
			return l.AtoB, l.BtoA // (NIC out, fabric-to-host)
		},
		wire: func(st *guest.Stack, guestIdx, nicIdx int, dev guest.NetDevice) error {
			return m.wireConns(cfg, pr, st, guestIdx, nicIdx, dev)
		},
		name:     identity,
		macIndex: identityIdx,
	}

	if err := buildHost(cfg, env); err != nil {
		return nil, err
	}
	m.adoptHost(h)
	m.faults = newFaultInjector(m)
	return m, nil
}

// newMachine creates the machine shell both topologies assemble into:
// the engine, the frame and segment pools, and the workload generator
// that drives whatever connections the builders wire (direction decides
// which RPC message is payload-heavy).
func newMachine(cfg Config) (*Machine, error) {
	eng := sim.New()
	spec := cfg.Workload.Resolved(cfg.Dir == Tx || cfg.Dir == Both, cfg.Dir == Rx || cfg.Dir == Both)
	work, err := workload.NewGenerator(eng, spec)
	if err != nil {
		return nil, err
	}
	return &Machine{
		Eng:     eng,
		Work:    work,
		arena:   ether.NewArena(),
		segPool: transport.NewSegPool(),
		cfg:     cfg,
	}, nil
}

// buildHost assembles one host in the environment's fabric according to
// the configured I/O architecture.
func buildHost(cfg Config, env hostEnv) error {
	switch cfg.Mode {
	case ModeNative:
		return buildNative(cfg, env)
	case ModeXen:
		return buildXen(cfg, env)
	case ModeCDNA:
		return buildCDNA(cfg, env)
	default:
		return fmt.Errorf("bench: unknown mode %v", cfg.Mode)
	}
}

// adoptHost folds a built host's components into the machine's
// aggregate views (and the host-0 convenience aliases), and points its
// guest stacks at the machine's frame arena.
func (m *Machine) adoptHost(h *Host) {
	for _, st := range h.Stacks {
		st.Arena = m.arena
	}
	if h.Index == 0 {
		m.Hyp = h.Hyp
	}
	m.IntelNICs = append(m.IntelNICs, h.IntelNICs...)
	m.RiceNICs = append(m.RiceNICs, h.RiceNICs...)
	m.CtxMgrs = append(m.CtxMgrs, h.CtxMgrs...)
	m.Drivers = append(m.Drivers, h.Drivers...)
}

// wireConns creates the benchmark connection slots between a guest
// stack's device for NIC i and the peer's port i, registering each slot
// with the machine's workload generator. Bulk/churn/burst slots are one
// connection in the configured direction (Both = one each way);
// request/response slots are a forward-request/reverse-response pair.
func (m *Machine) wireConns(cfg Config, pr *peer, st *guest.Stack, guestIdx, nicIdx int, dev guest.NetDevice) error {
	local := transport.Addr{Host: 0, Guest: guestIdx, Port: nicIdx}
	remote := transport.Addr{Host: transport.PeerHost, Guest: transport.PeerHost, Port: nicIdx}
	wire := func(dir Direction) *transport.Conn {
		conn := transport.NewConn(m.Eng, len(m.Conns.Conns), transport.DefaultSegSize, cfg.Window)
		conn.RTO = 200 * sim.Millisecond
		conn.SetPool(m.segPool)
		if dir == Tx {
			conn.Local, conn.Remote = local, remote
			conn.AttachSender(st.Sender(dev, pr.macs[nicIdx]))
			conn.AttachReceiver(pr.sender(nicIdx, dev.MAC()))
		} else {
			conn.Local, conn.Remote = remote, local
			conn.AttachSender(pr.sender(nicIdx, dev.MAC()))
			conn.AttachReceiver(st.Sender(dev, pr.macs[nicIdx]))
		}
		m.Conns.Add(conn)
		return conn
	}
	for c := 0; c < cfg.ConnsPerGuestPerNIC; c++ {
		if m.Work.NeedsReverse() {
			// RPC: the guest is always the client — requests flow
			// guest→peer, responses flow back. Direction only selects
			// which message is payload-heavy (spec resolution).
			ep := workload.Endpoint{
				Fwd: wire(Tx), Rev: wire(Rx),
				Local: local, Remote: remote,
				OnFlowSetup: st.ChargeFlowSetup, OnFlowTeardown: st.ChargeFlowTeardown,
			}
			if err := m.Work.Add(ep); err != nil {
				return err
			}
			continue
		}
		dirs := []Direction{cfg.Dir}
		if cfg.Dir == Both {
			dirs = []Direction{Tx, Rx}
		}
		for _, dir := range dirs {
			ep := workload.Endpoint{
				Fwd:         wire(dir),
				Local:       local,
				Remote:      remote,
				OnFlowSetup: st.ChargeFlowSetup, OnFlowTeardown: st.ChargeFlowTeardown,
			}
			if err := m.Work.Add(ep); err != nil {
				return err
			}
		}
	}
	return nil
}

// recordDev files a guest device into the host's wiring roster.
func (h *Host) recordDev(guestIdx int, dev guest.NetDevice) {
	for len(h.devs) <= guestIdx {
		h.devs = append(h.devs, nil)
	}
	h.devs[guestIdx] = append(h.devs[guestIdx], dev)
}

func buildNative(cfg Config, env hostEnv) error {
	cal := cfg.Cal
	h := env.h
	hostDom := h.CPU.NewDomain(env.name("host"), cpu.KindGuest)
	const hostID = mem.Dom0 + 1
	st := guest.NewStack(hostDom, cal.StackNative)
	h.Stacks = []*guest.Stack{st}
	for i := 0; i < cfg.NICs; i++ {
		nicOut, hostIn := env.newLink()
		b := bus.New(env.eng, cal.Bus)
		n := intelnic.New(env.eng, b, h.Mem, nicOut, cal.Intel, ether.MakeMAC(1, env.macIndex(i)))
		hostIn.Connect(ether.PortFunc(n.Receive))
		drv, err := guest.NewNativeDriver(hostDom, hostID, h.Mem, n, cal.NativeDrv)
		if err != nil {
			return err
		}
		// Native: the NIC interrupts the host OS directly.
		n.SetIRQ(drv.OnInterrupt)
		drv.Start()
		st.AttachDevice(drv)
		h.IntelNICs = append(h.IntelNICs, n)
		h.recordDev(0, drv)
		if env.wire != nil {
			if err := env.wire(st, 0, i, drv); err != nil {
				return err
			}
		}
	}
	return nil
}

func buildXen(cfg Config, env hostEnv) error {
	cal := cfg.Cal
	h := env.h
	// Xen trusts the driver domain (§2.2): the only rings on a CDNA NIC
	// in this topology belong to dom0 and are not validated.
	hyp := xen.New(env.eng, h.CPU, h.Mem, cal.Hyp, core.ModeOff)
	h.Hyp = hyp
	dom0 := hyp.NewDomain(env.name("dom0"), cpu.KindDriver)
	h.dom0 = dom0
	startBackground(env.eng, dom0.VCPU, cal.BackgroundPeriod, cal.BackgroundKernel, cal.BackgroundUser)

	guests := make([]*xen.Domain, cfg.Guests)
	stacks := make([]*guest.Stack, cfg.Guests)
	stackCosts := cal.StackTSO
	if cfg.NIC == NICRice {
		stackCosts = cal.StackNoTSO // RiceNIC lacks TSO (§5.1)
	}
	for g := range guests {
		guests[g] = hyp.NewDomain(env.name(fmt.Sprintf("guest%d", g+1)), cpu.KindGuest)
		stacks[g] = guest.NewStack(guests[g].VCPU, stackCosts)
	}
	h.guestDoms = guests
	h.Stacks = stacks

	for i := 0; i < cfg.NICs; i++ {
		nicOut, hostIn := env.newLink()
		b := bus.New(env.eng, cal.Bus)

		// Physical device owned by the driver domain.
		var phys guest.NetDevice
		switch cfg.NIC {
		case NICIntel:
			n := intelnic.New(env.eng, b, h.Mem, nicOut, cal.Intel, ether.MakeMAC(1, env.macIndex(i)))
			hostIn.Connect(ether.PortFunc(n.Receive))
			drv, err := guest.NewNativeDriver(dom0.VCPU, dom0.ID, h.Mem, n, cal.NativeDrv)
			if err != nil {
				return err
			}
			ch := hyp.NewChannel(dom0, "nic", drv.OnInterrupt)
			irq := hyp.NewIRQ(env.name(fmt.Sprintf("intel%d", i)), ch.Notify)
			n.SetIRQ(irq.Raise)
			drv.Start()
			h.IntelNICs = append(h.IntelNICs, n)
			phys = drv
		case NICRice:
			// RiceNIC under software virtualization: one context assigned
			// to the driver domain, none to guests (§5.2). The driver
			// domain is trusted (§2.2), so its enqueues skip hypervisor
			// validation, exactly like a conventional NIC's driver.
			rice := cal.Rice
			rice.SeqCheck = false
			n, err := ricenic.New(env.eng, b, h.Mem, nicOut, rice)
			if err != nil {
				return err
			}
			hostIn.Connect(ether.PortFunc(n.Receive))
			cm := core.NewContextManager(hyp.Prot)
			cm.OnRevoke = func(c *core.Context) { n.DetachContext(c.ID) }
			tx, rx, err := makeRings(h.Mem, dom0.ID, fmt.Sprintf("dom0.nic%d", i))
			if err != nil {
				return err
			}
			ctx, err := cm.Assign(dom0.ID, ether.MakeMAC(1, env.macIndex(i)), tx, rx)
			if err != nil {
				return err
			}
			n.SetPromiscuous(ctx.ID)
			drv := guest.NewCDNADriver(dom0, h.Mem, n, ctx, cal.CDNADrv, hyp.Prot, true, cal.DirectPerDesc)
			ch := hyp.NewChannel(dom0, "cdna", drv.OnVirq)
			channels := make([]*xen.EventChannel, core.NumContexts)
			channels[ctx.ID] = ch
			dec := hyp.NewBitVecDecoder(n.BitVec, channels)
			irq := hyp.NewIRQ(env.name(fmt.Sprintf("rice%d", i)), dec.HandleIRQ)
			n.SetHost(irq.Raise, func(f *core.Fault) { hyp.HandleFault(cm, f) })
			drv.Start()
			h.RiceNICs = append(h.RiceNICs, n)
			h.CtxMgrs = append(h.CtxMgrs, cm)
			h.Drivers = append(h.Drivers, drv)
			phys = drv
		}

		nb := backend.NewNetback(hyp, dom0, phys, cal.Back)
		for g := range guests {
			front := nb.AddVif(guests[g], ether.MakeMAC(10+i, env.macIndex(g)), cal.Front)
			stacks[g].AttachDevice(front)
			h.recordDev(g, front)
			if env.wire != nil {
				if err := env.wire(stacks[g], g, i, front); err != nil {
					return err
				}
			}
		}
	}
	hyp.StartTimers()
	return nil
}

func buildCDNA(cfg Config, env hostEnv) error {
	cal := cfg.Cal
	h := env.h
	hyp := xen.New(env.eng, h.CPU, h.Mem, cal.Hyp, cfg.Protection)
	h.Hyp = hyp
	dom0 := hyp.NewDomain(env.name("dom0"), cpu.KindDriver)
	h.dom0 = dom0
	startBackground(env.eng, dom0.VCPU, cal.BackgroundPeriod, cal.BackgroundKernel, cal.BackgroundUser)

	guests := make([]*xen.Domain, cfg.Guests)
	stacks := make([]*guest.Stack, cfg.Guests)
	for g := range guests {
		guests[g] = hyp.NewDomain(env.name(fmt.Sprintf("guest%d", g+1)), cpu.KindGuest)
		stacks[g] = guest.NewStack(guests[g].VCPU, cal.StackNoTSO)
	}
	h.guestDoms = guests
	h.Stacks = stacks

	direct := cfg.Protection != core.ModeHypercall
	rice := cal.Rice
	rice.SeqCheck = cfg.Protection == core.ModeHypercall
	rice.DirectPerContextIRQ = cfg.DirectPerContextIRQ
	if cfg.TxCoalescePkts > 0 {
		rice.CoalescePkts = cfg.TxCoalescePkts
	}

	for i := 0; i < cfg.NICs; i++ {
		nicOut, hostIn := env.newLink()
		b := bus.New(env.eng, cal.Bus)
		n, err := ricenic.New(env.eng, b, h.Mem, nicOut, rice)
		if err != nil {
			return err
		}
		hostIn.Connect(ether.PortFunc(n.Receive))
		cm := core.NewContextManager(hyp.Prot)
		cm.OnRevoke = func(c *core.Context) { n.DetachContext(c.ID) }
		channels := make([]*xen.EventChannel, core.NumContexts)
		dec := hyp.NewBitVecDecoder(n.BitVec, channels)
		irq := hyp.NewIRQ(env.name(fmt.Sprintf("rice%d", i)), dec.HandleIRQ)
		n.SetHost(irq.Raise, func(f *core.Fault) { hyp.HandleFault(cm, f) })

		for g := range guests {
			tx, rx, err := makeRings(h.Mem, guests[g].ID, fmt.Sprintf("g%d.nic%d", g, i))
			if err != nil {
				return err
			}
			ctx, err := cm.Assign(guests[g].ID, ether.MakeMAC(10+i, env.macIndex(g)), tx, rx)
			if err != nil {
				return err
			}
			drv := guest.NewCDNADriver(guests[g], h.Mem, n, ctx, cal.CDNADrv, hyp.Prot, direct, cal.DirectPerDesc)
			drv.MaxBatch = cfg.MaxEnqueueBatch
			channels[ctx.ID] = hyp.NewChannel(guests[g], "cdna", drv.OnVirq)
			drv.Start()
			stacks[g].AttachDevice(drv)
			h.Drivers = append(h.Drivers, drv)
			h.recordDev(g, drv)
			if env.wire != nil {
				if err := env.wire(stacks[g], g, i, drv); err != nil {
					return err
				}
			}
		}
		h.RiceNICs = append(h.RiceNICs, n)
		h.CtxMgrs = append(h.CtxMgrs, cm)
	}
	hyp.StartTimers()
	return nil
}
