package bench

import (
	"strings"
	"testing"

	"cdna/internal/sim"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

// The multi-tier fabric determinism contract: a leaf-spine or fat-tree
// configuration is byte-identical at any shard count (trunks live on
// one engine and are never seams; ECMP hashes only frame addresses),
// and its rendered tables replay exactly.

// TestFabricShardDifferential runs leaf-spine and fat-tree racks —
// closed- and open-loop workloads, with and without oversubscription —
// across the shard ladder.
func TestFabricShardDifferential(t *testing.T) {
	cases := []struct {
		name string
		spec topo.FabricSpec
		pat  Pattern
		work workload.Spec
	}{
		{
			name: "leafspine-incast-bulk",
			spec: topo.FabricSpec{Kind: topo.KindLeafSpine, HostsPerLeaf: 2, Spines: 2},
			pat:  PatternIncast,
		},
		{
			name: "leafspine-all2all-oversub",
			spec: topo.FabricSpec{Kind: topo.KindLeafSpine, HostsPerLeaf: 2, Spines: 3, Oversub: 4},
			pat:  PatternAllToAll,
		},
		{
			name: "fattree-all2all-bulk",
			spec: topo.FabricSpec{Kind: topo.KindFatTree, HostsPerLeaf: 1, Spines: 2},
			pat:  PatternAllToAll,
		},
		{
			name: "leafspine-pairs-poisson",
			spec: topo.FabricSpec{Kind: topo.KindLeafSpine, HostsPerLeaf: 2, Spines: 2},
			pat:  PatternPairs,
			work: workload.Spec{Kind: workload.Poisson, FlowRate: 3000, SizeDist: workload.SizeWebSearch},
		},
		{
			name: "fattree-incast-pareto",
			spec: topo.FabricSpec{Kind: topo.KindFatTree, HostsPerLeaf: 2, Spines: 2},
			pat:  PatternIncast,
			work: workload.Spec{Kind: workload.Pareto, FlowRate: 2000},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
			cfg.Hosts = 4
			cfg.Pattern = tc.pat
			cfg.Fabric = tc.spec
			cfg.Workload = tc.work
			cfg.Warmup = 10 * sim.Millisecond
			cfg.Duration = 30 * sim.Millisecond
			shardDiff(t, cfg, 2, 4)
		})
	}
}

// TestFabricTraceShardDifferential pins the trace-driven generator's
// shard invariance: events are assigned against the machine-global
// roster, so the same flow lands on the same endpoint at any shard
// count.
func TestFabricTraceShardDifferential(t *testing.T) {
	var tr workload.FlowTrace
	for i := 0; i < 60; i++ {
		tr.Events = append(tr.Events, workload.TraceEvent{
			At:   sim.Time(i) * 400 * sim.Microsecond,
			Src:  1 + i%3, // spokes 1..3
			Dst:  0,       // incast root
			Segs: 1 + i%7,
		})
	}
	workload.RegisterTrace("benchshard", &tr)
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Hosts = 4
	cfg.Pattern = PatternIncast
	cfg.Fabric = topo.FabricSpec{Kind: topo.KindLeafSpine, HostsPerLeaf: 2, Spines: 2}
	cfg.Workload = workload.Spec{Kind: workload.Trace, TracePath: workload.MemPrefix + "benchshard"}
	cfg.Warmup = 10 * sim.Millisecond
	cfg.Duration = 40 * sim.Millisecond
	shardDiff(t, cfg, 2, 4)
}

// TestFabricPortFailShardDifferential pins the headline bugfix's
// semantics across shards: a failed fabric port drops ingress frames
// identically at any shard count, through injection and healing.
func TestFabricPortFailShardDifferential(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Hosts = 4
	cfg.Pattern = PatternIncast
	cfg.Fabric = topo.FabricSpec{Kind: topo.KindLeafSpine, HostsPerLeaf: 2, Spines: 2}
	cfg.Warmup = 10 * sim.Millisecond
	cfg.Duration = 40 * sim.Millisecond
	cfg.Fault = FaultSpec{Kind: FaultPortFail, After: 10 * sim.Millisecond, Outage: 10 * sim.Millisecond}
	shardDiff(t, cfg, 2, 4)
}

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

// TestFabricTablesShardByteIdentical renders the fabric scenario tables
// with and without sharding: the formatted artifacts must match byte
// for byte.
func TestFabricTablesShardByteIdentical(t *testing.T) {
	render := func(shards int) string {
		o := topoOpts()
		o.Shards = shards
		it, _, err := FabricIncast(o, 4)
		if err != nil {
			t.Fatal(err)
		}
		lt, _, err := ScenarioOpenLoop(o, []float64{400})
		if err != nil {
			t.Fatal(err)
		}
		return it.String() + "\n" + lt.String()
	}
	ref := render(1)
	if got := render(4); got != ref {
		t.Fatalf("sharded fabric tables diverge:\n--- shards=1 ---\n%s\n--- shards=4 ---\n%s", ref, got)
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

// TestFabricSnapshotRoundTripBench pins checkpoint/restore through a
// multi-tier fabric mid-window: the restored run must complete
// byte-identically to the cold one, including trunk queues and every
// member switch's FDB.
func TestFabricSnapshotRoundTripBench(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Hosts = 4
	cfg.Pattern = PatternIncast
	cfg.Fabric = topo.FabricSpec{Kind: topo.KindLeafSpine, HostsPerLeaf: 2, Spines: 2}
	cfg.Workload = workload.Spec{Kind: workload.Poisson, FlowRate: 2000, SizeDist: workload.SizeWebSearch}
	cfg.Warmup = 10 * sim.Millisecond
	cfg.Duration = 30 * sim.Millisecond
	cfg.Shards = 2

	snapAt := cfg.Warmup + 11*sim.Millisecond
	cold, img := runWithSnapshot(t, cfg, snapAt)
	resumed := resumeFromSnapshot(t, cfg, snapAt, img)
	a, b := resultJSON(t, cold), resultJSON(t, resumed)
	if a != b {
		t.Fatalf("restored fabric run diverged:\n--- cold ---\n%s\n--- restored ---\n%s", a, b)
	}

	// A different fabric shape must reject the image (switch roster
	// mismatch surfaces as a registry/state error, not silence).
	other := cfg
	other.Fabric.Spines = 3
	om, err := Prepare(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := om.Restore(img); err == nil {
		t.Fatal("restore into a different fabric shape succeeded")
	}
}
