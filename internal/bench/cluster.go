package bench

import (
	"fmt"

	"cdna/internal/cpu"
	"cdna/internal/ether"
	"cdna/internal/guest"
	"cdna/internal/mem"
	"cdna/internal/sim"
	"cdna/internal/topo"
	"cdna/internal/transport"
	"cdna/internal/workload"
)

// Pattern selects the cross-host traffic scenario of a multi-host
// configuration (Config.Hosts > 1). Patterns only choose which remote
// guest each connection slot targets; the traffic shape on each slot is
// still the configured workload (bulk, rr, churn, burst).
type Pattern int

// Traffic patterns.
const (
	// PatternPairs wires disjoint host pairs: host 2k's guests talk to
	// host 2k+1's guests (an odd trailing host idles). The fabric
	// carries balanced disjoint flows — the baseline that should match
	// single-host throughput per pair.
	PatternPairs Pattern = iota
	// PatternIncast converges every other host onto host 0 (N→1
	// fan-in): the switch's egress queue toward the root is the
	// bottleneck and tail-drops under overload. Direction Tx sends
	// spokes→root (classic incast); Rx reverses it into a fan-out.
	PatternIncast
	// PatternAllToAll gives every guest connections spread round-robin
	// over all remote hosts, the uniform shuffle traffic of a
	// rack-scale job.
	PatternAllToAll
)

func (p Pattern) String() string {
	switch p {
	case PatternPairs:
		return "pairs"
	case PatternIncast:
		return "incast"
	case PatternAllToAll:
		return "all2all"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// maxHosts bounds Config.Hosts: host indices share MakeMAC's index word
// with the guest/NIC index (hostIdx<<8 | i), so both halves must fit a
// byte.
const maxHosts = 256

// clusterMACIndex folds a host index into a MakeMAC index; host 0 maps
// to the identity, so a 1-host cluster and the classic single-host
// build address devices identically.
func clusterMACIndex(host int) func(int) int {
	return func(i int) int { return host<<8 | i }
}

// slot is one wiring attachment point of the cluster roster: a guest
// stack's device on one host NIC, with its fabric address.
type slot struct {
	addr transport.Addr
	st   *guest.Stack
	dev  guest.NetDevice
}

// buildCluster assembles cfg.Hosts full machines and connects them
// through a top-of-rack switch (internal/topo), then wires the
// configured cross-host traffic pattern. Every host is built by the
// same per-mode builder the single-host path uses; only the fabric
// behind newLink differs. Every fabric pipe uses keyed delivery
// sequencing (ether.Pipe.EnableKeyed), so same-instant delivery order
// is a pure function of traffic, not of scheduling order.
func buildCluster(cfg Config) (*Machine, error) {
	m, err := newMachine(cfg)
	if err != nil {
		return nil, err
	}
	eng := m.Eng
	// Access links claim keyed-pipe IDs [0, 2*Hosts*NICs); the fabric's
	// trunks start above them, so IDs are disjoint.
	m.Fabric, err = topo.NewFabric(eng, topo.DefaultParams(), cfg.Fabric,
		cfg.Hosts, cfg.NICs, 2*cfg.Hosts*cfg.NICs)
	if err != nil {
		return nil, err
	}

	guests := cfg.Guests
	if cfg.Mode == ModeNative {
		guests = 1
	}
	m.Conns.Grow(cfg.Hosts * guests * cfg.NICs * cfg.ConnsPerGuestPerNIC * 2)

	pipeID := 0
	for hi := 0; hi < cfg.Hosts; hi++ {
		h := &Host{Index: hi, CPU: cpu.New(eng, cfg.Cal.CPU), Mem: mem.New()}
		prefix := fmt.Sprintf("h%d.", hi)
		env := hostEnv{
			eng: eng,
			h:   h,
			newLink: func() (*ether.Pipe, *ether.Pipe) {
				p := m.Fabric.Params()
				l := ether.NewDuplex(eng, p.LinkGbps, p.PropDelay)
				l.AtoB.EnableKeyed(pipeID)
				l.BtoA.EnableKeyed(pipeID + 1)
				pipeID += 2
				m.Fabric.AddPort(l.AtoB, l.BtoA)
				h.Links = append(h.Links, l.AtoB, l.BtoA)
				return l.AtoB, l.BtoA
			},
			wire:     nil, // pattern wiring runs after every host exists
			name:     func(s string) string { return prefix + s },
			macIndex: clusterMACIndex(hi),
		}
		if err := buildHost(cfg, env); err != nil {
			return nil, err
		}
		m.Hosts = append(m.Hosts, h)
		m.adoptHost(h)
	}
	m.CPU, m.Mem = m.Hosts[0].CPU, m.Hosts[0].Mem

	if err := m.wirePattern(cfg); err != nil {
		return nil, err
	}
	m.faults = newFaultInjector(m)
	return m, nil
}

// slotAt returns host h's wiring slot for (guest g, NIC i).
func (m *Machine) slotAt(h, g, i int) slot {
	host := m.Hosts[h]
	return slot{
		addr: transport.Addr{Host: h, Guest: g, Port: i},
		st:   host.Stacks[g],
		dev:  host.devs[g][i],
	}
}

// wirePattern creates the cross-host benchmark connections for the
// configured traffic pattern. Iteration order is deterministic (host,
// NIC, guest, connection — the same nesting the single-host builders
// use), which fixes connection IDs and the workload's launch stagger.
func (m *Machine) wirePattern(cfg Config) error {
	n := len(m.Hosts)
	guests := len(m.Hosts[0].Stacks)
	for hi := 0; hi < n; hi++ {
		for i := 0; i < cfg.NICs; i++ {
			for g := 0; g < guests; g++ {
				src := m.slotAt(hi, g, i)
				for c := 0; c < cfg.ConnsPerGuestPerNIC; c++ {
					var dst slot
					switch cfg.Pattern {
					case PatternPairs:
						// Disjoint pairs; an odd trailing host idles.
						other := hi ^ 1
						if other >= n {
							continue
						}
						if hi&1 == 1 {
							continue // the even host of each pair owns the wiring
						}
						dst = m.slotAt(other, g, i)
					case PatternIncast:
						if hi == 0 {
							continue // host 0 is the root; spokes own the wiring
						}
						dst = m.slotAt(0, g%guests, i)
					case PatternAllToAll:
						dst = m.slotAt((hi+1+c%(n-1))%n, g, i)
					default:
						return fmt.Errorf("bench: unknown pattern %v", cfg.Pattern)
					}
					if err := m.wireCross(cfg, src, dst); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// wireCross creates one benchmark connection slot between two guests
// across the fabric, mirroring wireConns' direction and workload
// semantics with the CPU-less peer replaced by a real remote host:
// acks (and RPC responses) consume remote CPU and fabric capacity.
func (m *Machine) wireCross(cfg Config, src, dst slot) error {
	// wire creates a data connection a→b; frames ride each side's own
	// NIC onto the fabric, addressed by the remote device's MAC.
	wire := func(a, b slot) *transport.Conn {
		conn := transport.NewConn(m.Eng, len(m.Conns.Conns), transport.DefaultSegSize, cfg.Window)
		conn.RTO = 200 * sim.Millisecond
		conn.SetPool(m.segPool)
		conn.Local, conn.Remote = a.addr, b.addr
		conn.AttachSender(a.st.Sender(a.dev, b.dev.MAC()))
		conn.AttachReceiver(b.st.Sender(b.dev, a.dev.MAC()))
		m.Conns.Add(conn)
		return conn
	}
	if m.Work.NeedsReverse() {
		// RPC: the wiring guest is the client, the remote guest serves.
		ep := workload.Endpoint{
			Fwd: wire(src, dst), Rev: wire(dst, src),
			Local: src.addr, Remote: dst.addr,
			OnFlowSetup: src.st.ChargeFlowSetup, OnFlowTeardown: src.st.ChargeFlowTeardown,
		}
		return m.Work.Add(ep)
	}
	dirs := []Direction{cfg.Dir}
	if cfg.Dir == Both {
		dirs = []Direction{Tx, Rx}
	}
	for _, dir := range dirs {
		a, b := src, dst
		if dir == Rx {
			a, b = dst, src
		}
		// Endpoint identity stays with the wiring guest (Local/Remote),
		// but the flow hooks charge the forward sender's stack: flow
		// setup/teardown is driven by, and billed to, the side that
		// opens the flow.
		ep := workload.Endpoint{
			Fwd:         wire(a, b),
			Local:       src.addr,
			Remote:      dst.addr,
			OnFlowSetup: a.st.ChargeFlowSetup, OnFlowTeardown: a.st.ChargeFlowTeardown,
		}
		if err := m.Work.Add(ep); err != nil {
			return err
		}
	}
	return nil
}
