package bench

// Wiring invariants of the machine builder: the topology the experiments
// assume is actually what gets assembled.

import (
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"cdna/internal/core"
	"cdna/internal/mem"
	"cdna/internal/ring"
	"cdna/internal/sim"
)

func TestBuildCDNATopology(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Guests = 8
	cfg.NICs = 2
	cfg.ConnsPerGuestPerNIC = 2
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.RiceNICs) != 2 || len(m.IntelNICs) != 0 {
		t.Fatalf("NICs: rice=%d intel=%d", len(m.RiceNICs), len(m.IntelNICs))
	}
	if len(m.CtxMgrs) != 2 {
		t.Fatalf("context managers = %d", len(m.CtxMgrs))
	}
	// One context per guest per NIC.
	for i, cm := range m.CtxMgrs {
		if cm.Assigned() != 8 {
			t.Fatalf("NIC %d assigned contexts = %d, want 8", i, cm.Assigned())
		}
	}
	if len(m.Drivers) != 16 {
		t.Fatalf("drivers = %d, want 16", len(m.Drivers))
	}
	// dom0 + 8 guests.
	if len(m.Hyp.Domains()) != 9 {
		t.Fatalf("domains = %d", len(m.Hyp.Domains()))
	}
	// Connections: guests * NICs * conns.
	if len(m.Conns.Conns) != 8*2*2 {
		t.Fatalf("conns = %d", len(m.Conns.Conns))
	}
	// Every driver has a distinct MAC.
	macs := map[string]bool{}
	for _, d := range m.Drivers {
		s := d.MAC().String()
		if macs[s] {
			t.Fatalf("duplicate MAC %s", s)
		}
		macs[s] = true
	}
}

func TestBuildCDNAContextLimit(t *testing.T) {
	// 33 guests on one NIC exceeds the 32 hardware contexts.
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Guests = core.NumContexts + 1
	cfg.NICs = 1
	cfg.ConnsPerGuestPerNIC = 1
	if _, err := Build(cfg); err == nil {
		t.Fatal("building more guests than hardware contexts must fail")
	}
	// Exactly 32 works.
	cfg.Guests = core.NumContexts
	if _, err := Build(cfg); err != nil {
		t.Fatalf("32 guests should fit 32 contexts: %v", err)
	}
}

func TestBuildXenTopology(t *testing.T) {
	cfg := DefaultConfig(ModeXen, NICIntel, Rx)
	cfg.Guests = 4
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.IntelNICs) != 2 || len(m.RiceNICs) != 0 {
		t.Fatalf("NICs: intel=%d rice=%d", len(m.IntelNICs), len(m.RiceNICs))
	}
	if len(m.Hyp.Domains()) != 5 {
		t.Fatalf("domains = %d, want dom0+4", len(m.Hyp.Domains()))
	}
}

func TestBuildXenRiceUsesOneTrustedContext(t *testing.T) {
	cfg := DefaultConfig(ModeXen, NICRice, Tx)
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, cm := range m.CtxMgrs {
		if cm.Assigned() != 1 {
			t.Fatalf("NIC %d: %d contexts, want 1 (dom0 only, §5.2)", i, cm.Assigned())
		}
	}
	// The trusted dom0 path skips validation entirely.
	if m.Hyp.Prot.Mode != core.ModeOff {
		t.Fatalf("dom0 protection mode = %v, want off (trusted, §2.2)", m.Hyp.Prot.Mode)
	}
}

func TestBuildNativeHasNoHypervisor(t *testing.T) {
	cfg := DefaultConfig(ModeNative, NICIntel, Tx)
	cfg.NICs = 3
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hyp != nil {
		t.Fatal("native machine has a hypervisor")
	}
	if len(m.IntelNICs) != 3 {
		t.Fatalf("NICs = %d", len(m.IntelNICs))
	}
}

// TestValidateRejectsUndrivenNIC: native drives only the Intel NIC
// and CDNA only the RiceNIC, so a configuration naming the other one
// is rejected instead of running under a misleading name; Xen drives
// both.
func TestValidateRejectsUndrivenNIC(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		nic  NICKind
		ok   bool
	}{
		{ModeNative, NICIntel, true}, {ModeNative, NICRice, false},
		{ModeXen, NICIntel, true}, {ModeXen, NICRice, true}, {ModeXen, NICKind(7), false},
		{ModeCDNA, NICRice, true}, {ModeCDNA, NICIntel, false},
	} {
		err := DefaultConfig(tc.mode, tc.nic, Tx).Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%v with %s NIC: Validate() = %v", tc.mode, NICKinds.String(tc.nic), err)
		}
		if !tc.ok && err != nil && !strings.Contains(err.Error(), "cannot drive") {
			t.Errorf("%v with %s NIC: error %q does not say why", tc.mode, NICKinds.String(tc.nic), err)
		}
	}
}

// TestValidateBoundsGuestsAndNICs: every config, single-host or not,
// has at most maxPerHost guests and NICs per host. Only Validate sees
// the extreme values; no machine is built at them.
func TestValidateBoundsGuestsAndNICs(t *testing.T) {
	for _, hosts := range []int{0, 1, 4} {
		for _, tc := range []struct {
			guests, nics int
			ok           bool
		}{
			{maxPerHost, maxPerHost, true},
			{maxPerHost + 1, 1, false},
			{1, maxPerHost + 1, false},
			{100000000, 1, false},
			{1, 100000000, false},
			{math.MaxInt, math.MaxInt, false},
		} {
			cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
			cfg.Hosts, cfg.Guests, cfg.NICs = hosts, tc.guests, tc.nics
			if hosts > 1 {
				cfg.Pattern = PatternIncast
			}
			err := cfg.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("%d hosts, %d guests, %d NICs: Validate() = %v", hosts, tc.guests, tc.nics, err)
			}
		}
	}
}

func TestBuildUnknownModeFails(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Mode = Mode(99)
	if _, err := Build(cfg); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestDuplexWiring(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Both)
	cfg.Guests = 2
	cfg.ConnsPerGuestPerNIC = 3
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both directions double the connection count.
	if len(m.Conns.Conns) != 2*2*3*2 {
		t.Fatalf("duplex conns = %d, want 24", len(m.Conns.Conns))
	}
}

func TestModeAndNICStrings(t *testing.T) {
	if ModeNative.String() != "Native" || ModeXen.String() != "Xen" || ModeCDNA.String() != "CDNA" {
		t.Fatal("mode strings")
	}
	if NICIntel.String() != "Intel" || NICRice.String() != "RiceNIC" {
		t.Fatal("nic strings")
	}
	if Both.String() != "duplex" || Direction(9).String() == "" {
		t.Fatal("direction strings")
	}
}

// TestRunTracedAttachesTracer runs a traced Xen receive and a traced
// CDNA transmit and checks what the flight recorder names: every entry
// carries the label its callback was bound under, and a CPU task's
// completion shows the task's own label, never the CPU's shared
// completion callback.
func TestRunTracedAttachesTracer(t *testing.T) {
	const n = 512
	seen := map[string]bool{}
	for _, c := range []struct {
		mode Mode
		nic  NICKind
		dir  Direction
	}{{ModeXen, NICIntel, Rx}, {ModeCDNA, NICRice, Tx}} {
		cfg := DefaultConfig(c.mode, c.nic, c.dir)
		cfg.Warmup = 20 * sim.Millisecond
		cfg.Duration = 30 * sim.Millisecond
		m, res, err := RunTraced(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		if m.Tracer == nil || m.Tracer.Count() < n {
			t.Fatalf("%v/%v: tracer not recording", c.mode, c.dir)
		}
		tail := m.Tracer.Last(n)
		if len(tail) != n {
			t.Fatalf("%v/%v: trace tail holds %d entries, want %d", c.mode, c.dir, len(tail), n)
		}
		for i, e := range tail {
			if e.Name == "" {
				t.Fatalf("%v/%v: trace entry %d at %v is unnamed", c.mode, c.dir, i, e.At)
			}
			seen[e.Name] = true
		}
		if res.Mbps <= 0 {
			t.Fatalf("%v/%v: traced run produced no result", c.mode, c.dir)
		}
	}
	for _, prefix := range []string{
		"hc:",       // a hypercall (the CDNA enqueue)
		"netback.",  // a driver-domain back-end task
		"virq:",     // a virtual interrupt delivery
		"bus.dma:",  // a NIC DMA
		"netfront.", // a guest task, named by its own Fn
	} {
		found := false
		for name := range seen {
			found = found || strings.HasPrefix(name, prefix)
		}
		if !found {
			t.Errorf("no %q label among the traced events %v", prefix, slices.Sorted(maps.Keys(seen)))
		}
	}
	for _, shared := range []string{"cpu.task", "cpu.isr"} {
		if seen[shared] {
			t.Errorf("a task completion is traced as the CPU's shared %q callback", shared)
		}
	}
}

// TestRingsAfterFreeAreContiguous builds a ring pair after another
// domain freed a frame. The allocator hands freed frames out first, so
// a ring built from them would straddle that domain's pages; every
// slot of both rings must lie in the ring owner's own memory.
func TestRingsAfterFreeAreContiguous(t *testing.T) {
	m := mem.New()
	const other, dom = mem.Dom0 + 1, mem.Dom0 + 2
	a := m.Alloc(other, 8)
	if err := m.Free(other, a[1]); err != nil {
		t.Fatal(err)
	}
	tx, rx, err := makeRings(m, dom, "g")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*ring.Ring{tx, rx} {
		for i := uint32(0); i < uint32(r.Entries); i++ {
			if err := r.WriteDesc(m, dom, i, ring.Desc{Addr: 1, Len: 1}); err != nil {
				t.Fatalf("%s slot %d: %v", r.Name, i, err)
			}
		}
	}
}
