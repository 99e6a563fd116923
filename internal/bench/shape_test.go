package bench

// Shape tests: the acceptance criteria of the reproduction. Absolute
// numbers need not match the paper's testbed, but the orderings, rough
// factors, and crossovers must. Tolerances here are the contract
// EXPERIMENTS.md reports against.

import (
	"math"
	"testing"

	"cdna/internal/core"
)

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	cfg = Quick().apply(cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero target", name)
	}
	if rel := math.Abs(got-want) / want; rel > relTol {
		t.Errorf("%s = %.1f, want %.1f (±%.0f%%); off by %.0f%%", name, got, want, 100*relTol, 100*rel)
	}
}

// TestTable2TransmitShape checks the single-guest transmit row against
// the paper: Xen/Intel 1602, CDNA 1867 Mb/s, CDNA idle 50.8%, hyp 10.2%.
func TestTable2TransmitShape(t *testing.T) {
	xen := run(t, DefaultConfig(ModeXen, NICIntel, Tx))
	cdna := run(t, DefaultConfig(ModeCDNA, NICRice, Tx))

	within(t, "Xen tx Mb/s", xen.Mbps, 1602, 0.10)
	within(t, "CDNA tx Mb/s", cdna.Mbps, 1867, 0.05)
	if cdna.Mbps <= xen.Mbps {
		t.Error("CDNA must beat Xen on transmit")
	}
	within(t, "CDNA tx idle %", 100*cdna.Profile.Idle, 50.8, 0.15)
	within(t, "CDNA tx hyp %", 100*cdna.Profile.Hyp, 10.2, 0.25)
	within(t, "Xen tx driver %", 100*(xen.Profile.DriverOS+xen.Profile.DriverUser), 36.5, 0.20)
	// CDNA eliminates the driver domain from the data path entirely.
	if cdna.Profile.DriverOS+cdna.Profile.DriverUser > 0.02 {
		t.Errorf("CDNA driver-domain time = %.1f%%, want ~0.5%%",
			100*(cdna.Profile.DriverOS+cdna.Profile.DriverUser))
	}
	// Interrupts: zero to the driver domain under CDNA; guest rate near
	// the paper's 13,659/s.
	if cdna.DriverIntrPerSec > 100 {
		t.Errorf("CDNA driver interrupts = %.0f/s, want ~0", cdna.DriverIntrPerSec)
	}
	within(t, "CDNA guest intr/s", cdna.GuestIntrPerSec, 13659, 0.20)
	within(t, "Xen driver intr/s", xen.DriverIntrPerSec, 7438, 0.20)
	within(t, "Xen guest intr/s", xen.GuestIntrPerSec, 7853, 0.25)
}

// TestTable3ReceiveShape checks the single-guest receive row: Xen 1112,
// CDNA 1874 Mb/s, CDNA idle 40.9%, guest OS 48.0%.
func TestTable3ReceiveShape(t *testing.T) {
	xen := run(t, DefaultConfig(ModeXen, NICIntel, Rx))
	cdna := run(t, DefaultConfig(ModeCDNA, NICRice, Rx))

	within(t, "Xen rx Mb/s", xen.Mbps, 1112, 0.10)
	within(t, "CDNA rx Mb/s", cdna.Mbps, 1874, 0.05)
	within(t, "CDNA rx idle %", 100*cdna.Profile.Idle, 40.9, 0.15)
	within(t, "CDNA rx guest OS %", 100*cdna.Profile.GuestOS, 48.0, 0.15)
	// Receive costs more than transmit: Xen rx < Xen tx.
	xenTx := run(t, DefaultConfig(ModeXen, NICIntel, Tx))
	if xen.Mbps >= xenTx.Mbps {
		t.Error("Xen receive must be slower than Xen transmit")
	}
}

// TestXenRiceNICRowsShape: using the RiceNIC under software
// virtualization performs like the Intel NIC — the paper's evidence that
// CDNA's benefit is architectural, not better hardware (§5.2).
func TestXenRiceNICRowsShape(t *testing.T) {
	intel := run(t, DefaultConfig(ModeXen, NICIntel, Tx))
	rice := run(t, DefaultConfig(ModeXen, NICRice, Tx))
	ratio := rice.Mbps / intel.Mbps
	if ratio < 0.80 || ratio > 1.20 {
		t.Errorf("Xen/RiceNIC vs Xen/Intel tx ratio = %.2f, want ~1 (paper: 1674/1602 = 1.04)", ratio)
	}
	intelRx := run(t, DefaultConfig(ModeXen, NICIntel, Rx))
	riceRx := run(t, DefaultConfig(ModeXen, NICRice, Rx))
	rxRatio := riceRx.Mbps / intelRx.Mbps
	if rxRatio < 0.80 || rxRatio > 1.20 {
		t.Errorf("Xen/RiceNIC vs Xen/Intel rx ratio = %.2f, want ~1 (paper: 1075/1112 = 0.97)", rxRatio)
	}
}

// TestTable1Shape: native Linux dramatically outperforms a Xen guest
// (the paper's ~30% motivation datum).
func TestTable1Shape(t *testing.T) {
	native := DefaultConfig(ModeNative, NICIntel, Tx)
	native.NICs = 6
	native.ConnsPerGuestPerNIC = 6
	ntx := run(t, native)
	within(t, "native tx Mb/s", ntx.Mbps, 5126, 0.10)

	nativeRx := native
	nativeRx.Dir = Rx
	nrx := run(t, nativeRx)
	within(t, "native rx Mb/s", nrx.Mbps, 3629, 0.10)

	xtx := run(t, DefaultConfig(ModeXen, NICIntel, Tx))
	frac := xtx.Mbps / ntx.Mbps
	if frac < 0.2 || frac > 0.45 {
		t.Errorf("Xen guest achieves %.0f%% of native transmit, paper says ~31%%", 100*frac)
	}
}

// TestTable4ProtectionShape: disabling DMA protection drops hypervisor
// time to ~1.9% and returns ~9% idle, with throughput unchanged.
func TestTable4ProtectionShape(t *testing.T) {
	for _, dir := range []Direction{Tx, Rx} {
		on := run(t, DefaultConfig(ModeCDNA, NICRice, dir))
		offCfg := DefaultConfig(ModeCDNA, NICRice, dir)
		offCfg.Protection = core.ModeOff
		off := run(t, offCfg)

		if math.Abs(on.Mbps-off.Mbps)/on.Mbps > 0.02 {
			t.Errorf("%v: throughput changed with protection off: %.0f vs %.0f", dir, on.Mbps, off.Mbps)
		}
		within(t, dir.String()+" prot-off hyp %", 100*off.Profile.Hyp, 1.9, 0.60)
		idleGain := 100 * (off.Profile.Idle - on.Profile.Idle)
		if idleGain < 4 || idleGain > 14 {
			t.Errorf("%v: idle gain from disabling protection = %.1f points, paper: ~9", dir, idleGain)
		}
		if off.Profile.Hyp >= on.Profile.Hyp {
			t.Errorf("%v: protection off must reduce hypervisor time", dir)
		}
	}
}

// TestBenchmarkFairness: the benchmark tool balances bandwidth across
// connections (§5.1).
func TestBenchmarkFairness(t *testing.T) {
	res := run(t, DefaultConfig(ModeCDNA, NICRice, Tx))
	if res.Fairness < 0.95 {
		t.Errorf("fairness = %.3f, want >= 0.95", res.Fairness)
	}
}

// TestCleanRun: the standard configurations run without NIC drops,
// protection faults, or retransmissions.
func TestCleanRun(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(ModeCDNA, NICRice, Tx),
		DefaultConfig(ModeCDNA, NICRice, Rx),
		DefaultConfig(ModeXen, NICIntel, Tx),
		DefaultConfig(ModeXen, NICIntel, Rx),
	} {
		res := run(t, cfg)
		if res.Faults != 0 {
			t.Errorf("%s: %d protection faults", cfg.Name(), res.Faults)
		}
		if res.Retransmits > 0 {
			t.Errorf("%s: %d retransmits", cfg.Name(), res.Retransmits)
		}
		if res.Drops > 100 {
			t.Errorf("%s: %d NIC drops", cfg.Name(), res.Drops)
		}
	}
}

// TestDeterminism: identical configurations give bit-identical results.
func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Mbps != b.Mbps || a.Events != b.Events || a.GuestIntrPerSec != b.GuestIntrPerSec {
		t.Errorf("nondeterministic: %.3f/%.3f Mb/s, %d/%d events", a.Mbps, b.Mbps, a.Events, b.Events)
	}
}

// TestNativeModeHasNoHypervisor: the native baseline charges nothing to
// hypervisor or driver domain.
func TestNativeModeHasNoHypervisor(t *testing.T) {
	cfg := DefaultConfig(ModeNative, NICIntel, Tx)
	res := run(t, cfg)
	if res.Profile.Hyp != 0 || res.Profile.DriverOS != 0 {
		t.Errorf("native profile leaked hyp/driver time: %+v", res.Profile)
	}
	if res.Mbps < 1800 {
		t.Errorf("native 2-NIC tx = %.0f Mb/s, should saturate ~1880", res.Mbps)
	}
}

// TestConfigName formats stable identifiers.
func TestConfigName(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	if cfg.Name() != "CDNA/RiceNIC/1g/2nic/transmit" {
		t.Errorf("Name = %q", cfg.Name())
	}
}

// TestConnsForBalance: the per-guest connection count balances a fixed
// total.
func TestConnsForBalance(t *testing.T) {
	if connsFor(1) != 12 || connsFor(2) != 6 || connsFor(12) != 1 || connsFor(24) != 1 {
		t.Errorf("connsFor: %d %d %d %d", connsFor(1), connsFor(2), connsFor(12), connsFor(24))
	}
}
