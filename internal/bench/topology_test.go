package bench

import (
	"testing"

	"cdna/internal/sim"
	"cdna/internal/transport"
)

// topoOpts returns short measurement windows for the multi-host tests
// (clusters simulate several machines per experiment, so windows stay
// tight even outside -short).
func topoOpts() Opts {
	return Opts{Warmup: 20 * sim.Millisecond, Duration: 60 * sim.Millisecond}
}

// TestClusterBuildShape checks the multi-host assembly: every host gets
// its own CPU, NICs and guests; the fabric has one port per (host, NIC)
// link; and the aggregate views concatenate in host order.
func TestClusterBuildShape(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Hosts = 3
	cfg.Pattern = PatternIncast
	cfg.Guests = 2
	cfg.ConnsPerGuestPerNIC = 2
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Hosts) != 3 {
		t.Fatalf("hosts = %d", len(m.Hosts))
	}
	if m.Fabric == nil || m.Fabric.NumPorts() != 3*cfg.NICs {
		t.Fatalf("fabric ports = %d, want %d", m.Fabric.NumPorts(), 3*cfg.NICs)
	}
	if len(m.RiceNICs) != 3*cfg.NICs {
		t.Fatalf("aggregate RiceNICs = %d, want %d", len(m.RiceNICs), 3*cfg.NICs)
	}
	for hi, h := range m.Hosts {
		if h.Index != hi || h.CPU == nil || h.Hyp == nil {
			t.Fatalf("host %d malformed", hi)
		}
		if len(h.RiceNICs) != cfg.NICs || len(h.Stacks) != cfg.Guests {
			t.Fatalf("host %d: nics=%d stacks=%d", hi, len(h.RiceNICs), len(h.Stacks))
		}
	}
	// Incast wiring: every endpoint's remote is a guest on host 0, and
	// only spokes own endpoints.
	eps := m.Work.Endpoints()
	if len(eps) == 0 {
		t.Fatal("no workload endpoints wired")
	}
	want := 2 /* spoke hosts */ * cfg.NICs * cfg.Guests * cfg.ConnsPerGuestPerNIC
	if len(eps) != want {
		t.Fatalf("endpoints = %d, want %d", len(eps), want)
	}
	for _, ep := range eps {
		if ep.Remote.Host != 0 {
			t.Fatalf("incast endpoint targets host %d, want 0", ep.Remote.Host)
		}
		if ep.Local.Host == 0 {
			t.Fatal("incast root must not originate endpoints")
		}
	}
	// Device MACs must be unique fabric-wide (host identity folded into
	// the MakeMAC index).
	seen := map[string]bool{}
	for _, h := range m.Hosts {
		for _, devs := range h.devs {
			for _, d := range devs {
				mac := d.MAC().String()
				if seen[mac] {
					t.Fatalf("duplicate device MAC %s across hosts", mac)
				}
				seen[mac] = true
			}
		}
	}
}

// TestClusterPatternsDeliver runs each pattern end to end briefly and
// checks traffic actually crosses the fabric (and the conservation
// ledger closes: frames the switch accepted were delivered or counted
// dropped — nothing vanished in the fabric).
func TestClusterPatternsDeliver(t *testing.T) {
	for _, pat := range []Pattern{PatternPairs, PatternIncast, PatternAllToAll} {
		pat := pat
		t.Run(pat.String(), func(t *testing.T) {
			cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
			cfg.Hosts = 3
			cfg.Pattern = pat
			cfg.NICs = 1
			cfg.ConnsPerGuestPerNIC = 4
			cfg.Warmup, cfg.Duration = topoOpts().Warmup, topoOpts().Duration
			m, res, err := runMachine(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Mbps <= 0 {
				t.Fatalf("no goodput for %v", pat)
			}
			var enq, drop uint64
			for i := 0; i < m.Fabric.NumPorts(); i++ {
				p := m.Fabric.Port(i)
				enq += p.Enqueued.Total()
				drop += p.Dropped.Total()
			}
			// Exact conservation: each forwarding decision (one per known
			// unicast, ports-1 per flood) either entered an egress queue
			// or was counted as a drop, synchronously — frames still
			// waiting out the forwarding latency appear on neither side.
			// (Single-switch formula: the default fabric is one ToR.)
			sw := m.Fabric.SwitchAt(0)
			decisions := sw.Forwarded().Total() +
				sw.Flooded().Total()*uint64(sw.NumPorts()-1)
			if enq+drop != decisions {
				t.Fatalf("fabric ledger: enq %d + drop %d != decisions %d", enq, drop, decisions)
			}
		})
	}
}

// TestSingleHostAddrsThreaded checks the identity threading on the
// classic topology: guest-side endpoints are host 0 and the far end is
// the off-fabric peer.
func TestSingleHostAddrsThreaded(t *testing.T) {
	cfg := DefaultConfig(ModeXen, NICIntel, Tx)
	cfg.Guests = 2
	cfg.ConnsPerGuestPerNIC = 1
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Conns.Conns) == 0 {
		t.Fatal("no conns")
	}
	for _, c := range m.Conns.Conns {
		if c.Local.Host != 0 || c.Remote.Host != transport.PeerHost {
			t.Fatalf("conn %d addrs %v -> %v, want h0 -> peer", c.ID, c.Local, c.Remote)
		}
	}
}
