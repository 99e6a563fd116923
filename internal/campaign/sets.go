package campaign

import (
	"fmt"
	"strings"

	"cdna/internal/bench"
	"cdna/internal/core"
	"cdna/internal/stats"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

// The named experiment sets. Every canned experiment set is declared
// once, in Sets: cmd/cdnasweep -preset records a set's points, and
// cmd/cdnatables prints the tables of the sets it selects. A table
// reads its rows out of the set's results by configuration, so the
// same experiment is never declared twice and a set's expansion order
// (which the records follow) is free of the tables' row order.

// A Set is one named, canned experiment set.
type Set struct {
	Name  string // the cdnasweep -preset name
	Title string // one line for the -preset help
	Grids []Grid
	// Tables are what cdnatables prints from the set's results; nil
	// for a set only cdnasweep records.
	Tables []Table
}

// A Table is one table cdnatables prints from a set's results.
type Table struct {
	Title string
	// rows selects the points of the set the table reads; nil reads
	// every point.
	rows func(bench.Config) bool
	// render builds the table from the outcomes of its rows, in set
	// order, finding each row's result by configuration.
	render func([]bench.Outcome) *stats.Table
}

func (t Table) reads(cfg bench.Config) bool { return t.rows == nil || t.rows(cfg) }

// Render builds the table from a batch of outcomes that holds its rows
// (a set's Points, run); outcomes the table does not read are ignored.
// Every row must have succeeded.
func (t Table) Render(outs []bench.Outcome) *stats.Table {
	var rows []bench.Outcome
	for _, out := range outs {
		if t.reads(out.Config) {
			rows = append(rows, out)
		}
	}
	return t.render(rows)
}

// Points returns the set's experiments that any of tables reads, in
// set order; with no tables, every experiment of the set.
func (s Set) Points(tables ...Table) []bench.Config {
	cfgs := Expand(s.Grids...)
	if len(tables) == 0 {
		return cfgs
	}
	var keep []bench.Config
	for _, cfg := range cfgs {
		for _, t := range tables {
			if t.reads(cfg) {
				keep = append(keep, cfg)
				break
			}
		}
	}
	return keep
}

// Named returns the set called name.
func Named(name string) (Set, bool) {
	for _, s := range Sets() {
		if s.Name == name {
			return s, true
		}
	}
	return Set{}, false
}

// PaperGrids is the "paper" set's grids: Tables 1–4, Figures 3–4 and
// the ablations, as one deduplicated campaign.
func PaperGrids() []Grid {
	s, _ := Named("paper")
	return s.Grids
}

// Sets returns every named experiment set, freshly built (callers may
// edit the grids), in the order cdnatables prints them.
func Sets() []Set {
	tx := []bench.Direction{bench.Tx}
	bothDirs := []bench.Direction{bench.Tx, bench.Rx}
	xenOnly := []bench.Mode{bench.ModeXen}
	cdnaOnly := []bench.Mode{bench.ModeCDNA}
	xenCDNA := []bench.Mode{bench.ModeXen, bench.ModeCDNA}
	hypercall := func(c bench.Config) bool { return c.Protection == core.ModeHypercall }

	// Table 1: native Linux on the six-NIC rig and a Xen guest on the
	// two-NIC rig, transmit and receive.
	table1 := Set{Name: "table1", Title: "Table 1: native Linux vs a Xen guest",
		Grids: []Grid{
			{Modes: []bench.Mode{bench.ModeNative}, Dirs: bothDirs, NICCounts: []int{6}, Conns: 6},
			{Modes: xenOnly, NICs: []bench.NICKind{bench.NICIntel}, Dirs: bothDirs},
		},
		Tables: []Table{
			{Title: "Table 1: native Linux vs Xen guest (paper: native 5126/3629, Xen 1602/1112 Mb/s)", render: nativeVsXen},
		}}

	// Tables 2–4: the three I/O architectures (Xen/Intel, Xen/RiceNIC,
	// CDNA/RiceNIC) in both directions, plus CDNA with DMA protection
	// disabled (Table 4).
	tables := Set{Name: "tables", Title: "Tables 2-4: the three I/O architectures, CDNA protection on and off",
		Grids: []Grid{
			{Modes: xenOnly, NICs: []bench.NICKind{bench.NICIntel, bench.NICRice}, Dirs: bothDirs},
			{Modes: cdnaOnly, Dirs: bothDirs, Protections: []core.Mode{core.ModeHypercall, core.ModeOff}},
		},
		Tables: []Table{
			{Title: "Table 2: single-guest transmit, 2 NICs (paper: 1602 / 1674 / 1867 Mb/s)",
				rows: func(c bench.Config) bool { return c.Dir == bench.Tx && hypercall(c) }, render: architectures},
			{Title: "Table 3: single-guest receive, 2 NICs (paper: 1112 / 1075 / 1874 Mb/s)",
				rows: func(c bench.Config) bool { return c.Dir == bench.Rx && hypercall(c) }, render: architectures},
			{Title: "Table 4: CDNA with and without DMA memory protection (paper: hyp 10.2->1.9%, idle +9.6)",
				rows: func(c bench.Config) bool { return c.Mode == bench.ModeCDNA }, render: protection},
		}}

	// Figures 3 and 4: Xen/Intel vs CDNA/RiceNIC aggregate throughput
	// and idle time over the guest-count axis, both directions.
	figures := Set{Name: "figures", Title: "Figures 3-4: Xen vs CDNA scaling over 1-24 guests",
		Grids: []Grid{
			{Modes: xenCDNA, NICs: []bench.NICKind{bench.NICIntel}, Dirs: bothDirs, Guests: []int{1, 2, 4, 8, 12, 16, 20, 24}},
		},
		Tables: []Table{
			{Title: "Figure 3: transmit throughput vs guests (paper: Xen 1602->891, CDNA ~1867 flat)",
				rows: func(c bench.Config) bool { return c.Dir == bench.Tx }, render: scaling},
			{Title: "Figure 4: receive throughput vs guests (paper: Xen 1112->558, CDNA ~1874 flat)",
				rows: func(c bench.Config) bool { return c.Dir == bench.Rx }, render: scaling},
		}}

	// The ablations, all CDNA transmit: A1 interrupt delivery at 8
	// guests (§3.2), A2 descriptors per enqueue hypercall (§3.3), A4
	// the protection mechanism (§5.3) and A5 the transmit interrupt
	// coalescing threshold (§5.1). A2's unlimited point is A4's
	// hypercall point; it runs once and both tables read it.
	ablations := Set{Name: "ablations", Title: "ablations A1, A2, A4, A5 (CDNA transmit)",
		Grids: []Grid{
			{Modes: cdnaOnly, Dirs: tx, Guests: []int{8}, IRQDeliveries: []bool{false, true}},
			{Modes: cdnaOnly, Dirs: tx, MaxEnqueueBatches: []int{1, 2, 4, 8, 16, 0}},
			{Modes: cdnaOnly, Dirs: tx, Protections: []core.Mode{core.ModeHypercall, core.ModeIOMMU, core.ModeOff}},
			{Modes: cdnaOnly, Dirs: tx, TxCoalesce: []int{2, 4, 8, 12, 24, 48}},
		},
		Tables: []Table{
			{Title: "Ablation A1 (§3.2): interrupt bit vectors vs per-context interrupts, 8 guests",
				rows: func(c bench.Config) bool { return c.Guests == 8 }, render: irqDelivery},
			{Title: "Ablation A2 (§3.3): descriptors per enqueue hypercall",
				rows: func(c bench.Config) bool {
					return c.Guests == 1 && hypercall(c) && c.TxCoalescePkts == 0
				}, render: batching},
			{Title: "Ablation A4 (§5.3): protection via hypercall vs IOMMU vs disabled",
				rows: func(c bench.Config) bool {
					return c.Guests == 1 && c.MaxEnqueueBatch == 0 && c.TxCoalescePkts == 0
				}, render: protectionMechanism},
			{Title: "Ablation A5 (§5.1): transmit interrupt coalescing threshold",
				rows: func(c bench.Config) bool { return c.TxCoalescePkts != 0 }, render: coalescing},
		}}

	// Beyond the paper: full-duplex traffic (every guest transmits and
	// receives at once), and the §5.4 conjecture that "with more CDNA
	// NICs, the throughput curve would have a similar shape to that of
	// software virtualization, but with a much higher peak" — four
	// CDNA NICs give ~3.7 Gb/s of line rate, so once the CPU saturates
	// the curve must bend over.
	extensions := Set{Name: "extensions", Title: "full-duplex Xen vs CDNA; CDNA with four NICs over 1-24 guests",
		Grids: []Grid{
			{Modes: xenCDNA, NICs: []bench.NICKind{bench.NICIntel}, Dirs: []bench.Direction{bench.Both}},
			{Modes: cdnaOnly, Dirs: tx, NICCounts: []int{4}, Guests: []int{1, 2, 4, 8, 16, 24}},
		},
		Tables: []Table{
			{Title: "Extension: full-duplex traffic (beyond the paper's unidirectional runs)",
				rows: func(c bench.Config) bool { return c.Dir == bench.Both }, render: duplex},
			{Title: "Extension (§5.4 conjecture): CDNA with four NICs vs guest count",
				rows: func(c bench.Config) bool { return c.NICs == 4 }, render: fourNICs},
		}}

	// Traffic diversity: all four closed-loop workload shapes (bulk,
	// RPC, connection churn, on/off bursts) across the three I/O
	// architectures, ranking virtualization overheads under
	// latency-bound and churn-bound traffic, not only bulk streams.
	workloads := Set{Name: "workloads", Title: "bulk, RPC, churn and burst traffic on native, Xen and CDNA",
		Grids: []Grid{{
			Modes: []bench.Mode{bench.ModeNative, bench.ModeXen, bench.ModeCDNA},
			Workloads: []workload.Spec{
				{Kind: workload.Bulk},
				{Kind: workload.RequestResponse},
				{Kind: workload.Churn},
				{Kind: workload.Burst},
			},
		}}}

	// Cross-host scenarios over the switched fabric (internal/topo),
	// Xen vs CDNA transmit: an incast host sweep (the N→1 fan-in whose
	// tail drops live in the switch's root-port egress queue), pairwise
	// and all-to-all shuffles, and connection churn across the fabric.
	topology := Set{Name: "topology", Title: "incast, pairwise and all-to-all over the switched fabric",
		Grids: []Grid{
			{Modes: xenCDNA, Dirs: tx, Hosts: []int{2, 4, 8}, Patterns: []bench.Pattern{bench.PatternIncast}},
			{Modes: xenCDNA, Dirs: tx, Hosts: []int{4}, Patterns: []bench.Pattern{bench.PatternPairs, bench.PatternAllToAll}},
			{Modes: xenCDNA, Dirs: tx, Hosts: []int{8}, Patterns: []bench.Pattern{bench.PatternAllToAll}},
			{Modes: xenCDNA, Dirs: tx, Hosts: []int{4}, Patterns: []bench.Pattern{bench.PatternIncast},
				Workloads: []workload.Spec{{Kind: workload.Churn}}},
		},
		Tables: []Table{
			{Title: "Topology incast: N-to-1 fan-in over the switched fabric (Xen vs CDNA)",
				rows: func(c bench.Config) bool { return c.Pattern == bench.PatternIncast }, render: incast},
			{Title: "Topology shuffle: pairwise and all-to-all over the switched fabric",
				rows: func(c bench.Config) bool { return c.Pattern != bench.PatternIncast }, render: shuffle},
		}}

	// Faults and churn on a 3-host incast, Xen vs CDNA: none as the
	// baseline, an access-link flap, a switch-port failure with its FDB
	// re-learning churn, and a whole-fabric blackout whose healing
	// synchronizes the retransmission timers. Each fault takes the
	// default schedule (injection a quarter into the window, healing a
	// quarter later), valid at any window length, and targets host 0's
	// first access link or port, the incast root.
	faults := Set{Name: "faults", Title: "link flap, port failure and blackout under incast",
		Grids: []Grid{
			{Modes: xenCDNA, Dirs: tx, Hosts: []int{3}, Patterns: []bench.Pattern{bench.PatternIncast},
				Faults: []bench.FaultSpec{
					{},
					{Kind: bench.FaultLinkFlap},
					{Kind: bench.FaultPortFail},
					{Kind: bench.FaultBlackout},
				}},
		}}

	// Multi-tier fabrics: incast and all-to-all re-run over leaf-spine
	// and fat-tree (two hosts per leaf or edge, two spines) against the
	// single ToR, moving incast's convergence point from one ToR port
	// onto the fabric's downlink toward the root's leaf; then disjoint
	// pairs with one host per leaf, so every flow crosses the spine
	// tier, under a rising oversubscription ratio that starves the
	// trunks. A zero Oversub is the 1:1 default.
	fabrics := Set{Name: "fabrics", Title: "incast, all-to-all and oversubscription over leaf-spine and fat-tree",
		Grids: []Grid{
			{Modes: xenCDNA, Dirs: tx, Hosts: []int{4},
				Patterns: []bench.Pattern{bench.PatternIncast, bench.PatternAllToAll},
				Fabrics: []topo.FabricSpec{
					{},
					{Kind: topo.KindLeafSpine, HostsPerLeaf: 2, Spines: 2},
					{Kind: topo.KindFatTree, HostsPerLeaf: 2, Spines: 2},
				}},
			{Modes: cdnaOnly, Dirs: tx, Hosts: []int{4}, Patterns: []bench.Pattern{bench.PatternPairs},
				Fabrics: []topo.FabricSpec{
					{Kind: topo.KindLeafSpine, HostsPerLeaf: 1, Spines: 2},
					{Kind: topo.KindLeafSpine, HostsPerLeaf: 1, Spines: 2, Oversub: 2},
					{Kind: topo.KindLeafSpine, HostsPerLeaf: 1, Spines: 2, Oversub: 4},
				}},
		},
		Tables: []Table{
			{Title: "Fabric incast and shuffle: cross-rack incast and all-to-all (ToR vs leaf-spine vs fat-tree)",
				rows: func(c bench.Config) bool { return c.Pattern != bench.PatternPairs }, render: fabricPatterns},
			{Title: "Fabric oversubscription: core-link saturation vs oversubscription ratio (leaf-spine)",
				rows: func(c bench.Config) bool { return c.Pattern == bench.PatternPairs }, render: oversubscription},
		}}

	// Open-loop load: Poisson arrivals of web-search flows and Pareto
	// arrivals of data-mining flows, from light load through
	// response-time collapse, converging incast-style across a
	// leaf-spine fabric. Arrivals do not slow down when the receive
	// path saturates, so the overloaded architecture's backlog and flow
	// latency grow, which closed-loop traffic cannot show.
	openloop := Set{Name: "openloop", Title: "Poisson and Pareto flow arrivals at 50-4000 flows/s over leaf-spine",
		Grids: []Grid{
			{Modes: xenCDNA, Dirs: tx, Hosts: []int{4}, Patterns: []bench.Pattern{bench.PatternIncast},
				Fabrics:   []topo.FabricSpec{{Kind: topo.KindLeafSpine, HostsPerLeaf: 2, Spines: 2}},
				Workloads: openLoopShapes(50, 500, 4000)},
		},
		Tables: []Table{
			{Title: "Open loop: Xen vs CDNA under Poisson and Pareto flow arrivals (response-time collapse)", render: openLoop},
		}}

	var paperGrids []Grid
	for _, s := range []Set{table1, tables, figures, ablations} {
		paperGrids = append(paperGrids, s.Grids...)
	}
	paper := Set{Name: "paper", Title: "the whole evaluation: table1, tables, figures and ablations", Grids: paperGrids}

	return []Set{table1, tables, figures, ablations, extensions, workloads, topology, faults, fabrics, openloop, paper}
}

func openLoopShapes(rates ...float64) []workload.Spec {
	var shapes []workload.Spec
	for _, rate := range rates {
		shapes = append(shapes,
			workload.Spec{Kind: workload.Poisson, FlowRate: rate, SizeDist: workload.SizeWebSearch},
			workload.Spec{Kind: workload.Pareto, FlowRate: rate, SizeDist: workload.SizeDataMining},
		)
	}
	return shapes
}

// Renderers. Each gets its table's rows in set order.

func pct(f float64) string         { return fmt.Sprintf("%.1f%%", 100*f) }
func mbps(r bench.Result) string   { return fmt.Sprintf("%.0f", r.Mbps) }
func micros(us float64) string     { return fmt.Sprintf("%.0f", us) }
func system(c bench.Config) string { return fmt.Sprintf("%v/%v", c.Mode, c.NIC) }

var profileHeader = []string{"Hyp", "DrvOS", "DrvUsr", "GstOS", "GstUsr", "Idle", "DrvIntr/s", "GstIntr/s"}

func profileRow(label string, r bench.Result) []string {
	p := r.Profile
	return []string{label, mbps(r),
		pct(p.Hyp), pct(p.DriverOS), pct(p.DriverUser),
		pct(p.GuestOS), pct(p.GuestUser), pct(p.Idle),
		fmt.Sprintf("%.0f", r.DriverIntrPerSec), fmt.Sprintf("%.0f", r.GuestIntrPerSec),
	}
}

// pairs groups outcomes whose configurations differ only in the I/O
// architecture (mode and NIC), in order of first appearance, so each
// table row group shows Xen next to CDNA.
func pairs(rows []bench.Outcome) [][]bench.Outcome {
	var groups [][]bench.Outcome
	index := map[bench.Config]int{}
	for _, out := range rows {
		key := out.Config
		key.Mode, key.NIC = 0, 0
		i, ok := index[key]
		if !ok {
			i = len(groups)
			index[key] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], out)
	}
	return groups
}

func nativeVsXen(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: []string{"System", "Direction", "Mb/s"}}
	for _, dir := range []bench.Direction{bench.Tx, bench.Rx} {
		for _, out := range rows {
			if out.Config.Dir != dir {
				continue
			}
			label := "Xen Guest"
			if out.Config.Mode == bench.ModeNative {
				label = "Native Linux"
			}
			t.AddRow(fmt.Sprintf("%s %v", label, dir), dir.String(), mbps(out.Result))
		}
	}
	return t
}

func architectures(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: append([]string{"System", "Mb/s"}, profileHeader...)}
	for _, out := range rows {
		t.AddRow(profileRow(fmt.Sprintf("%v / %v", out.Config.Mode, out.Config.NIC), out.Result)...)
	}
	return t
}

func protection(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: append([]string{"System / Protection", "Mb/s"}, profileHeader...)}
	for _, out := range rows {
		dir := out.Config.Dir.String()
		state := "Enabled"
		if out.Config.Protection == core.ModeOff {
			state = "Disabled"
		}
		t.AddRow(profileRow(fmt.Sprintf("CDNA (%s%s) / %s", strings.ToUpper(dir[:1]), dir[1:], state), out.Result)...)
	}
	return t
}

func scaling(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: []string{"Guests", "Xen Mb/s", "Xen idle", "CDNA Mb/s", "CDNA idle"}}
	for _, g := range pairs(rows) {
		var xen, cdna bench.Result
		for _, out := range g {
			if out.Config.Mode == bench.ModeCDNA {
				cdna = out.Result
			} else {
				xen = out.Result
			}
		}
		t.AddRow(fmt.Sprintf("%d", g[0].Config.Guests),
			mbps(xen), pct(xen.Profile.Idle), mbps(cdna), pct(cdna.Profile.Idle))
	}
	return t
}

func irqDelivery(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: []string{"Delivery", "Mb/s", "Hyp", "Idle", "PhysIRQ/s"}}
	for _, out := range rows {
		label, r := "bit vector", out.Result
		if out.Config.DirectPerContextIRQ {
			label = "per-context IRQ"
		}
		t.AddRow(label, mbps(r), pct(r.Profile.Hyp), pct(r.Profile.Idle), fmt.Sprintf("%.0f", r.PhysIRQPerSec))
	}
	return t
}

func batching(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: []string{"MaxBatch", "Mb/s", "Hyp", "Idle"}}
	for _, out := range rows {
		label, r := fmt.Sprintf("%d", out.Config.MaxEnqueueBatch), out.Result
		if out.Config.MaxEnqueueBatch <= 0 {
			label = "unlimited"
		}
		t.AddRow(label, mbps(r), pct(r.Profile.Hyp), pct(r.Profile.Idle))
	}
	return t
}

func protectionMechanism(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: []string{"Protection", "Mb/s", "Hyp", "Idle"}}
	for _, out := range rows {
		r := out.Result
		t.AddRow(out.Config.Protection.String(), mbps(r), pct(r.Profile.Hyp), pct(r.Profile.Idle))
	}
	return t
}

func coalescing(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: []string{"TxCoalescePkts", "Mb/s", "Idle", "GstIntr/s"}}
	for _, out := range rows {
		r := out.Result
		t.AddRow(fmt.Sprintf("%d", out.Config.TxCoalescePkts), mbps(r),
			pct(r.Profile.Idle), fmt.Sprintf("%.0f", r.GuestIntrPerSec))
	}
	return t
}

func duplex(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: []string{"System", "Mb/s (agg)", "Idle", "p50 lat (us)", "p90 lat (us)"}}
	for _, out := range rows {
		r := out.Result
		t.AddRow(fmt.Sprintf("%v / %v", out.Config.Mode, out.Config.NIC), mbps(r), pct(r.Profile.Idle),
			micros(r.LatencyP50us), micros(r.LatencyP90us))
	}
	return t
}

func fourNICs(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: []string{"Guests", "CDNA 4-NIC Mb/s", "Idle"}}
	for _, out := range rows {
		t.AddRow(fmt.Sprintf("%d", out.Config.Guests), mbps(out.Result), pct(out.Result.Profile.Idle))
	}
	return t
}

func incast(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: []string{"Hosts", "Workload", "System", "Mb/s", "Fairness", "SwitchDrops", "MaxQ", "Retrans"}}
	for _, g := range pairs(rows) {
		for _, out := range g {
			c, r := out.Config, out.Result
			t.AddRow(fmt.Sprint(c.Hosts), c.Workload.Kind.String(), system(c),
				mbps(r), fmt.Sprintf("%.3f", r.Fairness),
				fmt.Sprint(r.FabricDrops), fmt.Sprint(r.FabricMaxDepth), fmt.Sprint(r.Retransmits))
		}
	}
	return t
}

func shuffle(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: []string{"Hosts", "Pattern", "System", "Mb/s", "Fairness", "SwitchDrops", "MaxQ", "p90 lat (us)"}}
	for _, g := range pairs(rows) {
		for _, out := range g {
			c, r := out.Config, out.Result
			t.AddRow(fmt.Sprint(c.Hosts), c.Pattern.String(), system(c),
				mbps(r), fmt.Sprintf("%.3f", r.Fairness),
				fmt.Sprint(r.FabricDrops), fmt.Sprint(r.FabricMaxDepth), micros(r.LatencyP90us))
		}
	}
	return t
}

func fabricPatterns(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: []string{"Fabric", "Pattern", "System", "Mb/s", "SwitchDrops", "MaxQ", "Flooded", "Retrans"}}
	for _, g := range pairs(rows) {
		for _, out := range g {
			c, r := out.Config, out.Result
			t.AddRow(c.Fabric.Kind.String(), c.Pattern.String(), system(c),
				mbps(r), fmt.Sprint(r.FabricDrops), fmt.Sprint(r.FabricMaxDepth),
				fmt.Sprint(r.FabricFlooded), fmt.Sprint(r.Retransmits))
		}
	}
	return t
}

func oversubscription(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: []string{"Oversub", "Mb/s", "SwitchDrops", "MaxQ", "Retrans", "p90 lat (us)"}}
	for _, out := range rows {
		ov, r := out.Config.Fabric.Oversub, out.Result
		if ov == 0 {
			ov = 1
		}
		t.AddRow(fmt.Sprintf("%g:1", ov), mbps(r), fmt.Sprint(r.FabricDrops),
			fmt.Sprint(r.FabricMaxDepth), fmt.Sprint(r.Retransmits), micros(r.LatencyP90us))
	}
	return t
}

func openLoop(rows []bench.Outcome) *stats.Table {
	t := &stats.Table{Header: []string{"Rate/ep", "Arrivals", "System", "Arrivals/s", "Flows/s", "p50 lat (us)", "p99 lat (us)", "SwitchDrops"}}
	for _, g := range pairs(rows) {
		for _, out := range g {
			c, r := out.Config, out.Result
			t.AddRow(fmt.Sprintf("%g", c.Workload.FlowRate), fmt.Sprintf("%v/%v", c.Workload.Kind, c.Workload.SizeDist),
				system(c), fmt.Sprintf("%.0f", r.ArrivalsPerSec), fmt.Sprintf("%.0f", r.FlowsPerSec),
				micros(r.MsgLatP50us), micros(r.MsgLatP99us), fmt.Sprint(r.FabricDrops))
		}
	}
	return t
}
