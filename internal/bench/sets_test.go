package bench_test

// The evaluation's shape tests and the scenario goldens, run through
// the named experiment sets cmd/cdnatables prints and cmd/cdnasweep
// records (internal/campaign), so they check the experiments as
// declared. A test narrows a table's rows to the points it needs.

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cdna/internal/bench"
	"cdna/internal/campaign"
	"cdna/internal/core"
	"cdna/internal/sim"
	"cdna/internal/workload"
)

// shortWindows are the multi-host tests' windows: clusters simulate
// several machines per experiment, so windows stay tight.
var shortWindows = bench.Opts{Warmup: 20 * sim.Millisecond, Duration: 60 * sim.Millisecond}

// setTable returns the table of set name whose title starts with title.
func setTable(t *testing.T, name, title string) (campaign.Set, campaign.Table) {
	t.Helper()
	set, ok := campaign.Named(name)
	if !ok {
		t.Fatalf("no set %q", name)
	}
	for _, tbl := range set.Tables {
		if strings.HasPrefix(tbl.Title, title) {
			return set, tbl
		}
	}
	t.Fatalf("set %q has no table %q", name, title)
	return set, campaign.Table{}
}

// runPoints runs configurations at windows w, in order, and fails the
// test on the first error.
func runPoints(t *testing.T, cfgs []bench.Config, w bench.Opts) []bench.Outcome {
	t.Helper()
	if len(cfgs) == 0 {
		t.Fatal("no experiments selected")
	}
	outs := campaign.Run(campaign.Apply(cfgs, w.Warmup, w.Duration), campaign.Options{})
	for _, out := range outs {
		if out.Err != nil {
			t.Fatalf("%s: %v", out.Config.Name(), out.Err)
		}
	}
	return outs
}

// tableRows runs the rows of a set's table that keep accepts (nil keeps
// all), at windows w, in set order.
func tableRows(t *testing.T, name, title string, w bench.Opts, keep func(bench.Config) bool) []bench.Outcome {
	t.Helper()
	set, tbl := setTable(t, name, title)
	var cfgs []bench.Config
	for _, cfg := range set.Points(tbl) {
		if keep == nil || keep(cfg) {
			cfgs = append(cfgs, cfg)
		}
	}
	return runPoints(t, cfgs, w)
}

// find returns the result of the one outcome whose config matches.
func find(t *testing.T, outs []bench.Outcome, match func(bench.Config) bool) bench.Result {
	t.Helper()
	var found []bench.Result
	for _, out := range outs {
		if match(out.Config) {
			found = append(found, out.Result)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d rows match, want 1", len(found))
	}
	return found[0]
}

func guestsIn(guests ...int) func(bench.Config) bool {
	return func(c bench.Config) bool {
		for _, g := range guests {
			if c.Guests == g {
				return true
			}
		}
		return false
	}
}

// figurePoint is one (guests, system) sample of Figure 3 or 4.
type figurePoint struct {
	Guests    int
	Xen, CDNA bench.Result
}

// figure runs the named figure's rows at the given guest counts.
func figure(t *testing.T, title string, guests ...int) []figurePoint {
	t.Helper()
	outs := tableRows(t, "figures", title, bench.Quick(), guestsIn(guests...))
	var pts []figurePoint
	for _, g := range guests {
		pts = append(pts, figurePoint{Guests: g,
			Xen:  find(t, outs, func(c bench.Config) bool { return c.Guests == g && c.Mode == bench.ModeXen }),
			CDNA: find(t, outs, func(c bench.Config) bool { return c.Guests == g && c.Mode == bench.ModeCDNA }),
		})
	}
	return pts
}

// TestFigure3Shape: the transmit scaling curve — CDNA bandwidth flat
// with idle draining to zero by 8 guests; Xen declining.
func TestFigure3Shape(t *testing.T) {
	pts := figure(t, "Figure 3:", 1, 2, 8, 24)
	p1, p2, p8, p24 := pts[0], pts[1], pts[2], pts[3]

	// CDNA bandwidth stays within 3% of the single-guest value.
	for _, p := range pts[1:] {
		if math.Abs(p.CDNA.Mbps-p1.CDNA.Mbps)/p1.CDNA.Mbps > 0.03 {
			t.Errorf("CDNA bandwidth not flat: %d guests -> %.0f vs %.0f", p.Guests, p.CDNA.Mbps, p1.CDNA.Mbps)
		}
	}
	// CDNA idle drains monotonically to ~0 by 8 guests (paper: 50.8 ->
	// 25.4 -> 0).
	if !(p1.CDNA.Profile.Idle > p2.CDNA.Profile.Idle && p2.CDNA.Profile.Idle > p8.CDNA.Profile.Idle) {
		t.Errorf("CDNA idle not draining: %.2f, %.2f, %.2f",
			p1.CDNA.Profile.Idle, p2.CDNA.Profile.Idle, p8.CDNA.Profile.Idle)
	}
	if p8.CDNA.Profile.Idle > 0.05 {
		t.Errorf("CDNA idle at 8 guests = %.1f%%, paper: 0%%", 100*p8.CDNA.Profile.Idle)
	}
	// Xen declines substantially and monotonically.
	if !(p1.Xen.Mbps > p2.Xen.Mbps && p2.Xen.Mbps > p8.Xen.Mbps && p8.Xen.Mbps > p24.Xen.Mbps) {
		t.Errorf("Xen throughput not declining: %.0f, %.0f, %.0f, %.0f",
			p1.Xen.Mbps, p2.Xen.Mbps, p8.Xen.Mbps, p24.Xen.Mbps)
	}
	// At 24 guests CDNA wins by a large factor (paper: 2.1x; accept >1.5x).
	ratio := p24.CDNA.Mbps / p24.Xen.Mbps
	if ratio < 1.5 {
		t.Errorf("CDNA/Xen at 24 guests = %.2fx, paper: 2.1x", ratio)
	}
}

// TestFigure4Shape: the receive scaling curve (paper: Xen 1112 -> 558,
// CDNA flat, 3.3x at 24 guests; accept >2x).
func TestFigure4Shape(t *testing.T) {
	pts := figure(t, "Figure 4:", 1, 8, 24)
	p1, p8, p24 := pts[0], pts[1], pts[2]
	for _, p := range pts[1:] {
		if math.Abs(p.CDNA.Mbps-p1.CDNA.Mbps)/p1.CDNA.Mbps > 0.03 {
			t.Errorf("CDNA rx bandwidth not flat: %d guests -> %.0f", p.Guests, p.CDNA.Mbps)
		}
	}
	if !(p1.Xen.Mbps > p8.Xen.Mbps && p8.Xen.Mbps > p24.Xen.Mbps) {
		t.Errorf("Xen rx not declining: %.0f, %.0f, %.0f", p1.Xen.Mbps, p8.Xen.Mbps, p24.Xen.Mbps)
	}
	ratio := p24.CDNA.Mbps / p24.Xen.Mbps
	if ratio < 2.0 {
		t.Errorf("CDNA/Xen rx at 24 guests = %.2fx, paper: 3.3x", ratio)
	}
}

// TestAblationBatchingShape: smaller enqueue batches cost more
// hypervisor time (§3.3's motivation for batched hypercalls).
func TestAblationBatchingShape(t *testing.T) {
	batch := func(b int) func(bench.Config) bool {
		return func(c bench.Config) bool { return c.MaxEnqueueBatch == b }
	}
	outs := tableRows(t, "ablations", "Ablation A2", bench.Quick(),
		func(c bench.Config) bool { return batch(1)(c) || batch(0)(c) })
	one, unlimited := find(t, outs, batch(1)), find(t, outs, batch(0))
	if one.Profile.Hyp <= unlimited.Profile.Hyp {
		t.Errorf("batch=1 hyp %.1f%% should exceed unlimited %.1f%%",
			100*one.Profile.Hyp, 100*unlimited.Profile.Hyp)
	}
}

// TestAblationInterruptShape: per-context interrupts create a higher
// physical interrupt load than bit vectors (§3.2).
func TestAblationInterruptShape(t *testing.T) {
	outs := tableRows(t, "ablations", "Ablation A1", bench.Quick(), nil)
	bitvec := find(t, outs, func(c bench.Config) bool { return !c.DirectPerContextIRQ })
	direct := find(t, outs, func(c bench.Config) bool { return c.DirectPerContextIRQ })
	if direct.PhysIRQPerSec <= bitvec.PhysIRQPerSec*1.5 {
		t.Errorf("per-context IRQs %.0f/s should far exceed bit-vector %.0f/s",
			direct.PhysIRQPerSec, bitvec.PhysIRQPerSec)
	}
}

// TestAblationIOMMUShape: IOMMU mode matches protection-off hypervisor
// cost (the §5.3 upper-bound equivalence).
func TestAblationIOMMUShape(t *testing.T) {
	outs := tableRows(t, "ablations", "Ablation A4", bench.Quick(), nil)
	prot := func(m core.Mode) bench.Result {
		return find(t, outs, func(c bench.Config) bool { return c.Protection == m })
	}
	hyperc, iommu, off := prot(core.ModeHypercall), prot(core.ModeIOMMU), prot(core.ModeOff)
	if iommu.Profile.Hyp >= hyperc.Profile.Hyp {
		t.Error("IOMMU mode must reduce hypervisor time vs hypercall protection")
	}
	if math.Abs(iommu.Profile.Hyp-off.Profile.Hyp) > 0.02 {
		t.Errorf("IOMMU hyp %.1f%% should approximate protection-off %.1f%%",
			100*iommu.Profile.Hyp, 100*off.Profile.Hyp)
	}
}

// TestAblationCoalescingShape: tighter transmit coalescing raises the
// guest interrupt rate and burns idle time.
func TestAblationCoalescingShape(t *testing.T) {
	threshold := func(n int) func(bench.Config) bool {
		return func(c bench.Config) bool { return c.TxCoalescePkts == n }
	}
	outs := tableRows(t, "ablations", "Ablation A5", bench.Quick(),
		func(c bench.Config) bool { return threshold(2)(c) || threshold(48)(c) })
	tight, loose := find(t, outs, threshold(2)), find(t, outs, threshold(48))
	if tight.GuestIntrPerSec <= loose.GuestIntrPerSec {
		t.Errorf("threshold 2 intr %.0f/s should exceed threshold 48's %.0f/s",
			tight.GuestIntrPerSec, loose.GuestIntrPerSec)
	}
	if tight.Profile.Idle >= loose.Profile.Idle {
		t.Errorf("tight coalescing idle %.1f%% should be below loose %.1f%%",
			100*tight.Profile.Idle, 100*loose.Profile.Idle)
	}
}

// TestExtensionDuplexShape: under full-duplex load CDNA still dominates
// and carries far higher aggregate bandwidth at lower latency.
func TestExtensionDuplexShape(t *testing.T) {
	outs := tableRows(t, "extensions", "Extension: full-duplex", bench.Quick(), nil)
	xen := find(t, outs, func(c bench.Config) bool { return c.Mode == bench.ModeXen })
	cdna := find(t, outs, func(c bench.Config) bool { return c.Mode == bench.ModeCDNA })
	if cdna.Mbps <= xen.Mbps {
		t.Errorf("duplex: CDNA %.0f Mb/s should beat Xen %.0f", cdna.Mbps, xen.Mbps)
	}
	if cdna.Mbps < 2500 {
		t.Errorf("duplex CDNA aggregate = %.0f Mb/s; two full-duplex gigabit links should carry well over 2.5 Gb/s", cdna.Mbps)
	}
	if cdna.LatencyP50us <= 0 || xen.LatencyP50us <= 0 {
		t.Error("latency quantiles missing")
	}
	if cdna.LatencyP50us >= xen.LatencyP50us {
		t.Errorf("CDNA p50 latency %.0fus should be below Xen's %.0fus", cdna.LatencyP50us, xen.LatencyP50us)
	}
}

// TestExtensionMoreNICsShape verifies the paper's §5.4 conjecture in
// our model: with four CDNA NICs the single-guest peak far exceeds the
// two-NIC configuration, and the curve bends over (declines or
// plateaus below peak) once many guests saturate the CPU — "a similar
// shape to that of software virtualization, but with a much higher
// peak".
func TestExtensionMoreNICsShape(t *testing.T) {
	outs := tableRows(t, "extensions", "Extension (§5.4", bench.Quick(), guestsIn(1, 8, 24))
	at := func(g int) bench.Result { return find(t, outs, guestsIn(g)) }
	one, eight, many := at(1), at(8), at(24)
	if one.Mbps < 2500 {
		t.Errorf("4-NIC single-guest peak = %.0f Mb/s, want well above the 2-NIC 1883", one.Mbps)
	}
	if one.Profile.Idle > 0.25 {
		t.Errorf("4-NIC single guest idle = %.1f%%; four links should nearly consume the CPU", 100*one.Profile.Idle)
	}
	// The conjectured bend-over: many guests cannot exceed the few-guest
	// throughput once the CPU is the bottleneck.
	if many.Mbps > one.Mbps*1.05 {
		t.Errorf("throughput grew with 24 guests (%.0f vs %.0f)?", many.Mbps, one.Mbps)
	}
	if eight.Profile.Idle > 0.02 {
		t.Errorf("8-guest idle = %.1f%%, expected saturation", 100*eight.Profile.Idle)
	}
}

// renderSet runs the points of a set's tables that keep accepts and
// renders every table of the set.
func renderSet(t *testing.T, name string, w bench.Opts, keep func(bench.Config) bool) (string, []bench.Outcome) {
	t.Helper()
	set, _ := campaign.Named(name)
	var cfgs []bench.Config
	for _, cfg := range set.Points(set.Tables...) {
		if keep(cfg) {
			cfgs = append(cfgs, cfg)
		}
	}
	outs := runPoints(t, cfgs, w)
	var b strings.Builder
	for _, tbl := range set.Tables {
		b.WriteString(tbl.Render(outs).String() + "\n")
	}
	return b.String(), outs
}

// TestTopologyGoldenDeterminism pins byte-identical incast and
// all-to-all table output across runs — the multi-host extension of
// TestTable1GoldenDeterminism.
func TestTopologyGoldenDeterminism(t *testing.T) {
	render := func() string {
		out, _ := renderSet(t, "topology", shortWindows, func(c bench.Config) bool {
			return c.Hosts <= 4 && c.Pattern != bench.PatternPairs && c.Workload.Kind == workload.Bulk
		})
		return out
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("reruns differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if len(first) == 0 || !strings.Contains(first, "Hosts") {
		t.Fatalf("rendered topology tables look empty:\n%s", first)
	}
}

// TestFaultGoldenDeterminism pins byte-identical fault-scenario records
// across runs: the injection instants, the outage's drops, the FDB
// re-learning churn, and the recovery all replay exactly.
func TestFaultGoldenDeterminism(t *testing.T) {
	set, _ := campaign.Named("faults")
	record := func() string {
		outs := runPoints(t, set.Points(), shortWindows)
		// The scenarios must actually bite: link faults destroy frames,
		// and a port failure unlearns stations so traffic floods until
		// they re-learn.
		var linkDrops, flooded uint64
		for _, out := range outs {
			switch out.Config.Fault.Kind {
			case bench.FaultLinkFlap, bench.FaultBlackout:
				linkDrops += out.Result.LinkDrops
			case bench.FaultPortFail:
				flooded += out.Result.FabricFlooded
			}
		}
		if linkDrops == 0 {
			t.Fatal("link faults dropped no frames")
		}
		if flooded == 0 {
			t.Fatal("port failure forced no FDB re-learning floods")
		}
		var b bytes.Buffer
		if err := campaign.WriteJSON(&b, outs); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first, second := record(), record()
	if first != second {
		t.Fatalf("reruns differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if len(first) == 0 || !strings.Contains(first, "portfail") {
		t.Fatalf("fault records look empty:\n%s", first)
	}
}

// The multi-tier fabric determinism contract: a leaf-spine or fat-tree
// configuration replays byte-identically (ECMP hashes only frame
// addresses), and so do its rendered tables.

// TestFabricGoldenDeterminism pins byte-identical rendered output for
// the fabric and open-loop scenario tables, and that each scenario
// actually exhibits its phenomenon.
func TestFabricGoldenDeterminism(t *testing.T) {
	render := func() string {
		ft, fouts := renderSet(t, "fabrics", shortWindows, func(c bench.Config) bool {
			return c.Pattern == bench.PatternIncast || c.Pattern == bench.PatternPairs && c.Fabric.Oversub != 2
		})
		lt, louts := renderSet(t, "openloop", shortWindows, func(c bench.Config) bool {
			return c.Workload.Kind == workload.Poisson && c.Workload.FlowRate != 500
		})
		for _, out := range fouts {
			if out.Config.Pattern == bench.PatternIncast && out.Result.Mbps <= 0 {
				t.Fatalf("fabric incast row %s moved no traffic", out.Config.Name())
			}
		}
		// Oversubscription must bite: with every pair crossing the spine
		// tier, starved trunks tail-drop and goodput degrades. (The test
		// window is shorter than the RTO, so retransmissions are not a
		// usable signal here.)
		oversub := func(ov float64) bench.Result {
			return find(t, fouts, func(c bench.Config) bool {
				return c.Pattern == bench.PatternPairs && c.Fabric.Oversub == ov
			})
		}
		o1, o4 := oversub(0), oversub(4)
		if o4.FabricDrops <= o1.FabricDrops {
			t.Fatalf("4:1 oversub fabric drops %d not above 1:1's %d", o4.FabricDrops, o1.FabricDrops)
		}
		if o4.Mbps >= o1.Mbps {
			t.Fatalf("4:1 oversub goodput %.0f not below 1:1's %.0f", o4.Mbps, o1.Mbps)
		}
		// Open-loop overload must collapse response time. The p99 is
		// service-time dominated (the web-search tail is megabytes), so
		// the backlog-sensitive statistic is the *median*: at light load
		// it is a small flow's service time, under overload every flow
		// first waits out the queue.
		cdnaAt := func(rate float64) bench.Result {
			return find(t, louts, func(c bench.Config) bool {
				return c.Mode == bench.ModeCDNA && c.Workload.FlowRate == rate
			})
		}
		light, heavy := cdnaAt(50), cdnaAt(4000)
		if heavy.MsgLatP50us < 4*light.MsgLatP50us {
			t.Fatalf("open-loop overload p50 %.0fus not ≫ light load's %.0fus",
				heavy.MsgLatP50us, light.MsgLatP50us)
		}
		if heavy.ArrivalsPerSec <= heavy.FlowsPerSec {
			t.Fatalf("overloaded open loop shows no backlog (%.0f arrivals/s vs %.0f flows/s)",
				heavy.ArrivalsPerSec, heavy.FlowsPerSec)
		}
		return ft + "\n" + lt
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("reruns differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "leafspine") || !strings.Contains(first, "fattree") {
		t.Fatalf("rendered fabric tables look wrong:\n%s", first)
	}
}
