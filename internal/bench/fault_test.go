package bench

// Machine-level fault injection: the full §3.3 attack/detect/revoke
// sequence running against an assembled multi-guest machine under load.

import (
	"testing"

	"cdna/internal/core"
	"cdna/internal/sim"
)

func buildTwoGuests(t *testing.T, prot core.Mode) (*Machine, Config) {
	t.Helper()
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Guests = 2
	cfg.NICs = 1
	cfg.ConnsPerGuestPerNIC = 4
	cfg.Protection = prot
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Conns.Conns {
		c.Start()
	}
	return m, cfg
}

func TestMidRunForeignEnqueueRejected(t *testing.T) {
	m, _ := buildTwoGuests(t, core.ModeHypercall)
	attacker := m.Drivers[0]
	victimDom := m.Hyp.Domains()[2] // dom0, guest1, guest2
	m.Eng.Run(50 * sim.Millisecond)
	page := m.Mem.AllocRun(victimDom.ID, 1)
	var got error
	attacker.AttackForeignEnqueue(page.Base(), func(err error) { got = err })
	m.Eng.Run(80 * sim.Millisecond)
	if got != core.ErrForeignMemory {
		t.Fatalf("attack result = %v, want ErrForeignMemory", got)
	}
	// The attacker keeps working after a *rejected* hypercall (it is an
	// error return, not a fault).
	if attacker.Ctx.Faulted {
		t.Fatal("rejected enqueue must not revoke the context")
	}
}

func TestMidRunStaleReplayRevokesOnlyAttacker(t *testing.T) {
	m, _ := buildTwoGuests(t, core.ModeHypercall)
	attacker := m.Drivers[0]
	m.Eng.Run(50 * sim.Millisecond)
	attacker.AttackStaleProducer(4)
	m.Eng.Run(120 * sim.Millisecond)

	if !attacker.Ctx.Faulted {
		t.Fatal("stale replay not detected under load")
	}
	if m.RiceNICs[0].E.Faults.Total() == 0 {
		t.Fatal("the NIC's sequence check reported no protection fault")
	}
	if m.Hyp.Faults.Total() == 0 {
		t.Fatal("hypervisor did not handle the fault")
	}
	if m.CtxMgrs[0].Assigned() != 1 {
		t.Fatalf("assigned contexts = %d, want 1 (victim only)", m.CtxMgrs[0].Assigned())
	}

	// Victim throughput continues; attacker stops.
	m.Conns.StartWindow()
	m.Eng.Run(350 * sim.Millisecond)
	var attackerBytes, victimBytes uint64
	for i, c := range m.Conns.Conns {
		if i < 4 {
			attackerBytes += c.Delivered.Window()
		} else {
			victimBytes += c.Delivered.Window()
		}
	}
	if attackerBytes != 0 {
		t.Fatalf("revoked guest still delivered %d bytes", attackerBytes)
	}
	if victimBytes == 0 {
		t.Fatal("victim traffic did not survive the revocation")
	}
	// With the attacker gone the victim can use the whole link.
	mbps := float64(victimBytes) * 8 / 1e6 / 0.230
	if mbps < 700 {
		t.Fatalf("victim only reached %.0f Mb/s after revocation", mbps)
	}
}

func TestProtectionOffReplayUndetected(t *testing.T) {
	m, _ := buildTwoGuests(t, core.ModeOff)
	attacker := m.Drivers[0]
	m.Eng.Run(50 * sim.Millisecond)
	sent := m.RiceNICs[0].E.TxPackets.Total()
	attacker.AttackStaleProducer(4)
	m.Eng.Run(120 * sim.Millisecond)
	// Nothing stops the NIC: it goes on transmitting, the stale slots
	// included.
	if m.RiceNICs[0].E.TxPackets.Total() <= sent {
		t.Fatal("the NIC stopped transmitting after the unchecked replay")
	}
	if m.RiceNICs[0].E.Faults.Total() != 0 || attacker.Ctx.Faulted {
		t.Fatal("protection-off run must not detect the replay")
	}
	if m.Hyp.Faults.Total() != 0 {
		t.Fatal("hypervisor saw a fault with protection off")
	}
}

// TestRefcountsDrainAfterRun: after traffic stops and rings are reaped,
// no page pins leak (every pinned page is eventually released).
func TestRefcountsDrainAfterRun(t *testing.T) {
	m, _ := buildTwoGuests(t, core.ModeHypercall)
	m.Eng.Run(100 * sim.Millisecond)
	pinned := m.Hyp.Prot.PinnedPages.Total()
	reaped := m.Hyp.Prot.Reaped.Total()
	if pinned == 0 {
		t.Fatal("no pages were ever pinned — protection not exercised")
	}
	if reaped == 0 {
		t.Fatal("no pins were ever reaped")
	}
	// Outstanding pins are bounded by ring capacity (pins are reaped
	// lazily, so "all drained" is not expected; "bounded" is).
	var outstanding int
	for _, d := range m.Drivers {
		outstanding += m.Hyp.Prot.Pins(d.Ctx.TxRing) + m.Hyp.Prot.Pins(d.Ctx.RxRing)
	}
	limit := len(m.Drivers) * 2 * 1024
	if outstanding > limit {
		t.Fatalf("outstanding pins %d exceed ring capacity %d", outstanding, limit)
	}
}
