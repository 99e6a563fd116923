package bench

// Multi-guest fairness: §3.1 says the NIC "services all of the hardware
// contexts fairly and interleaves the network traffic for each guest";
// the benchmark tool balances bandwidth across connections (§5.1).

import (
	"testing"
)

// perGuestBytes aggregates windowed delivery per guest (connections are
// wired guest-major: guest g owns conns [g*perGuest, (g+1)*perGuest)).
func perGuestBytes(m *Machine, cfg Config) []uint64 {
	perGuest := cfg.ConnsPerGuestPerNIC * cfg.NICs
	out := make([]uint64, cfg.Guests)
	for i, c := range m.Conns.Conns {
		// wireConns order: for each NIC, for each guest, for each conn —
		// CDNA builds guests inside the NIC loop, so reconstruct by
		// index: conn index = nic*(guests*conns) + guest*conns + c.
		conns := cfg.ConnsPerGuestPerNIC
		g := (i / conns) % cfg.Guests
		out[g] += c.Delivered.Window()
		_ = perGuest
	}
	return out
}

func TestCDNAInterGuestFairness(t *testing.T) {
	cfg := Quick().apply(DefaultConfig(ModeCDNA, NICRice, Tx))
	cfg.Guests = 4
	cfg.ConnsPerGuestPerNIC = connsFor(4)
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Conns.Conns {
		c.Start()
	}
	m.Eng.Run(cfg.Warmup)
	m.Conns.StartWindow()
	m.Eng.Run(cfg.Warmup + cfg.Duration)

	bytes := perGuestBytes(m, cfg)
	var min, max uint64 = ^uint64(0), 0
	for _, b := range bytes {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if min == 0 {
		t.Fatalf("a guest was starved: %v", bytes)
	}
	if ratio := float64(max) / float64(min); ratio > 1.25 {
		t.Fatalf("inter-guest imbalance %.2f (bytes %v); the NIC must interleave contexts fairly", ratio, bytes)
	}
}

func TestXenInterGuestFairness(t *testing.T) {
	cfg := Quick().apply(DefaultConfig(ModeXen, NICIntel, Tx))
	cfg.Guests = 4
	cfg.ConnsPerGuestPerNIC = connsFor(4)
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Conns.Conns {
		c.Start()
	}
	m.Eng.Run(cfg.Warmup)
	m.Conns.StartWindow()
	m.Eng.Run(cfg.Warmup + cfg.Duration)

	bytes := perGuestBytes(m, cfg)
	var min, max uint64 = ^uint64(0), 0
	for _, b := range bytes {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if min == 0 {
		t.Fatalf("a guest was starved: %v", bytes)
	}
	if ratio := float64(max) / float64(min); ratio > 1.4 {
		t.Fatalf("inter-guest imbalance %.2f (bytes %v)", ratio, bytes)
	}
}
