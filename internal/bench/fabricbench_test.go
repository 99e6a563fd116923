package bench

import (
	"strings"
	"testing"

	"cdna/internal/topo"
)

// The multi-tier fabric determinism contract: a leaf-spine or fat-tree
// configuration replays byte-identically (ECMP hashes only frame
// addresses), and so do its rendered tables.

// TestFabricGoldenDeterminism pins byte-identical rendered output for
// the three fabric scenario tables, and that each scenario actually
// exhibits its phenomenon.
func TestFabricGoldenDeterminism(t *testing.T) {
	o := topoOpts()
	render := func() string {
		it, ires, err := FabricIncast(o, 4)
		if err != nil {
			t.Fatal(err)
		}
		ot, ores, err := FabricOversub(o, []float64{1, 4})
		if err != nil {
			t.Fatal(err)
		}
		lt, lres, err := ScenarioOpenLoop(o, []float64{10, 4000})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range ires {
			if res.Mbps <= 0 {
				t.Fatalf("fabric incast row %s moved no traffic", res.Config.Name())
			}
		}
		// Oversubscription must bite: with every pair crossing the spine
		// tier, starved trunks tail-drop and goodput degrades. (The test
		// window is shorter than the RTO, so retransmissions are not a
		// usable signal here.)
		if ores[1].FabricDrops <= ores[0].FabricDrops {
			t.Fatalf("4:1 oversub fabric drops %d not above 1:1's %d",
				ores[1].FabricDrops, ores[0].FabricDrops)
		}
		if ores[1].Mbps >= ores[0].Mbps {
			t.Fatalf("4:1 oversub goodput %.0f not below 1:1's %.0f",
				ores[1].Mbps, ores[0].Mbps)
		}
		// Open-loop overload must collapse response time. The p99 is
		// service-time dominated (the web-search tail is megabytes), so
		// the backlog-sensitive statistic is the *median*: at light load
		// it is a small flow's service time, under overload every flow
		// first waits out the queue.
		light, heavy := lres[1], lres[3] // CDNA rows
		if heavy.MsgLatP50us < 4*light.MsgLatP50us {
			t.Fatalf("open-loop overload p50 %.0fus not ≫ light load's %.0fus",
				heavy.MsgLatP50us, light.MsgLatP50us)
		}
		if heavy.ArrivalsPerSec <= heavy.FlowsPerSec {
			t.Fatalf("overloaded open loop shows no backlog (%.0f arrivals/s vs %.0f flows/s)",
				heavy.ArrivalsPerSec, heavy.FlowsPerSec)
		}
		return it.String() + "\n" + ot.String() + "\n" + lt.String()
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("reruns differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "leafspine") || !strings.Contains(first, "fattree") {
		t.Fatalf("rendered fabric tables look wrong:\n%s", first)
	}
}

// TestFabricConfigValidation covers the bench-layer gate: multi-tier
// fabrics require a multi-host machine, and malformed specs are
// rejected before building anything.
func TestFabricConfigValidation(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Fabric = topo.FabricSpec{Kind: topo.KindLeafSpine}
	if err := cfg.Validate(); err == nil {
		t.Fatal("single-host leaf-spine config accepted")
	}
	cfg.Hosts = 4
	cfg.Pattern = PatternIncast
	if err := cfg.Validate(); err != nil {
		t.Fatalf("multi-host leaf-spine config rejected: %v", err)
	}
	cfg.Fabric.Spines = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative spine count accepted")
	}
	cfg.Fabric.Spines = 0
	cfg.Fabric.Oversub = -2
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative oversubscription accepted")
	}
}

// TestFabricNamesDistinct checks that fabric variants of the same rack
// produce distinct config names (the campaign grid's identity).
func TestFabricNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range []topo.FabricSpec{
		{},
		{Kind: topo.KindLeafSpine},
		{Kind: topo.KindLeafSpine, Spines: 4},
		{Kind: topo.KindLeafSpine, Oversub: 4},
		{Kind: topo.KindFatTree},
	} {
		cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
		cfg.Hosts = 4
		cfg.Pattern = PatternIncast
		cfg.Fabric = spec
		name := cfg.Name()
		if seen[name] {
			t.Fatalf("duplicate config name %q for spec %+v", name, spec)
		}
		seen[name] = true
	}
}
