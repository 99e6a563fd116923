package bench

import (
	"fmt"

	"cdna/internal/core"
	"cdna/internal/sim"
	"cdna/internal/stats"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

// Opts controls experiment length and execution. Quick() is for tests
// and benchmarks; Full() is what cmd/cdnatables and EXPERIMENTS.md use.
type Opts struct {
	Warmup   sim.Time
	Duration sim.Time

	// Runner executes the experiment batches behind every table and
	// figure; nil means the sequential RunAll. cmd/cdnatables injects
	// campaign.Runner here to fan a table's rows across CPU cores.
	Runner Runner
}

// Full returns publication-length windows.
func Full() Opts { return Opts{Warmup: 300 * sim.Millisecond, Duration: sim.Second} }

// Quick returns short windows for tests and benchmarks.
func Quick() Opts { return Opts{Warmup: 150 * sim.Millisecond, Duration: 300 * sim.Millisecond} }

func (o Opts) apply(cfg Config) Config {
	cfg.Warmup = o.Warmup
	cfg.Duration = o.Duration
	return cfg
}

// runBatch applies the measurement windows to every configuration, runs
// the batch through the configured Runner, and unwraps the results. The
// table generators fail on the first error, as before the Runner split.
func (o Opts) runBatch(cfgs []Config) ([]Result, error) {
	run := o.Runner
	if run == nil {
		run = RunAll
	}
	for i := range cfgs {
		cfgs[i] = o.apply(cfgs[i])
	}
	outs := run(cfgs)
	results := make([]Result, len(outs))
	for i, out := range outs {
		if out.Err != nil {
			return nil, fmt.Errorf("%s: %w", out.Config.Name(), out.Err)
		}
		results[i] = out.Result
	}
	return results, nil
}

func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

func profileCells(r Result) []string {
	p := r.Profile
	return []string{
		fmtPct(p.Hyp), fmtPct(p.DriverOS), fmtPct(p.DriverUser),
		fmtPct(p.GuestOS), fmtPct(p.GuestUser), fmtPct(p.Idle),
		fmt.Sprintf("%.0f", r.DriverIntrPerSec), fmt.Sprintf("%.0f", r.GuestIntrPerSec),
	}
}

var profileHeader = []string{"Hyp", "DrvOS", "DrvUsr", "GstOS", "GstUsr", "Idle", "DrvIntr/s", "GstIntr/s"}

// labelled pairs a table row label with its configuration.
type labelled struct {
	label string
	cfg   Config
}

func runLabelled(o Opts, rows []labelled) ([]Result, error) {
	cfgs := make([]Config, len(rows))
	for i, row := range rows {
		cfgs[i] = row.cfg
	}
	return o.runBatch(cfgs)
}

// Table1 reproduces Table 1: native Linux vs a Xen guest, transmit and
// receive (native uses the paper's six-NIC rig; Xen the two-NIC one).
func Table1(o Opts) (*stats.Table, []Result, error) {
	var rows []labelled
	for _, dir := range []Direction{Tx, Rx} {
		ncfg := DefaultConfig(ModeNative, NICIntel, dir)
		ncfg.NICs = 6
		ncfg.ConnsPerGuestPerNIC = 6
		rows = append(rows,
			labelled{fmt.Sprintf("Native Linux %v", dir), ncfg},
			labelled{fmt.Sprintf("Xen Guest %v", dir), DefaultConfig(ModeXen, NICIntel, dir)})
	}
	results, err := runLabelled(o, rows)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: []string{"System", "Direction", "Mb/s"}}
	for i, row := range rows {
		t.AddRow(row.label, row.cfg.Dir.String(), fmt.Sprintf("%.0f", results[i].Mbps))
	}
	return t, results, nil
}

// table23 runs Table 2 (transmit) or Table 3 (receive): single guest,
// two NICs, three I/O architectures.
func table23(o Opts, dir Direction) (*stats.Table, []Result, error) {
	rows := []labelled{
		{"Xen / Intel", DefaultConfig(ModeXen, NICIntel, dir)},
		{"Xen / RiceNIC", DefaultConfig(ModeXen, NICRice, dir)},
		{"CDNA / RiceNIC", DefaultConfig(ModeCDNA, NICRice, dir)},
	}
	results, err := runLabelled(o, rows)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: append([]string{"System", "Mb/s"}, profileHeader...)}
	for i, row := range rows {
		t.AddRow(append([]string{row.label, fmt.Sprintf("%.0f", results[i].Mbps)}, profileCells(results[i])...)...)
	}
	return t, results, nil
}

// Table2 reproduces Table 2 (single-guest transmit).
func Table2(o Opts) (*stats.Table, []Result, error) { return table23(o, Tx) }

// Table3 reproduces Table 3 (single-guest receive).
func Table3(o Opts) (*stats.Table, []Result, error) { return table23(o, Rx) }

// Table4 reproduces Table 4: CDNA transmit and receive with DMA memory
// protection enabled and disabled.
func Table4(o Opts) (*stats.Table, []Result, error) {
	var rows []labelled
	for _, spec := range []struct {
		label string
		dir   Direction
		prot  core.Mode
	}{
		{"CDNA (Transmit) / Enabled", Tx, core.ModeHypercall},
		{"CDNA (Transmit) / Disabled", Tx, core.ModeOff},
		{"CDNA (Receive) / Enabled", Rx, core.ModeHypercall},
		{"CDNA (Receive) / Disabled", Rx, core.ModeOff},
	} {
		cfg := DefaultConfig(ModeCDNA, NICRice, spec.dir)
		cfg.Protection = spec.prot
		rows = append(rows, labelled{spec.label, cfg})
	}
	results, err := runLabelled(o, rows)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: append([]string{"System / Protection", "Mb/s"}, profileHeader...)}
	for i, row := range rows {
		t.AddRow(append([]string{row.label, fmt.Sprintf("%.0f", results[i].Mbps)}, profileCells(results[i])...)...)
	}
	return t, results, nil
}

// FigureGuests is the x-axis of Figures 3 and 4.
var FigureGuests = []int{1, 2, 4, 8, 12, 16, 20, 24}

// FigurePoint is one (guests, system) sample of Figure 3 or 4.
type FigurePoint struct {
	Guests int
	Xen    Result
	CDNA   Result
}

// figure runs Figure 3 (transmit) or Figure 4 (receive): aggregate
// throughput and CDNA idle time versus the number of guests. The Xen
// and CDNA samples of every point go into one batch, so a parallel
// Runner overlaps the whole curve.
func figure(o Opts, dir Direction, guests []int) (*stats.Table, []FigurePoint, error) {
	var cfgs []Config
	for _, g := range guests {
		xcfg := DefaultConfig(ModeXen, NICIntel, dir)
		xcfg.Guests = g
		xcfg.ConnsPerGuestPerNIC = connsFor(g)
		ccfg := DefaultConfig(ModeCDNA, NICRice, dir)
		ccfg.Guests = g
		ccfg.ConnsPerGuestPerNIC = connsFor(g)
		cfgs = append(cfgs, xcfg, ccfg)
	}
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: []string{"Guests", "Xen Mb/s", "Xen idle", "CDNA Mb/s", "CDNA idle"}}
	var pts []FigurePoint
	for i, g := range guests {
		xres, cres := results[2*i], results[2*i+1]
		pts = append(pts, FigurePoint{Guests: g, Xen: xres, CDNA: cres})
		t.AddRow(fmt.Sprintf("%d", g),
			fmt.Sprintf("%.0f", xres.Mbps), fmtPct(xres.Profile.Idle),
			fmt.Sprintf("%.0f", cres.Mbps), fmtPct(cres.Profile.Idle))
	}
	return t, pts, nil
}

// Figure3 reproduces Figure 3 (transmit scaling).
func Figure3(o Opts, guests []int) (*stats.Table, []FigurePoint, error) {
	return figure(o, Tx, guests)
}

// Figure4 reproduces Figure 4 (receive scaling).
func Figure4(o Opts, guests []int) (*stats.Table, []FigurePoint, error) {
	return figure(o, Rx, guests)
}

// AblationBatching sweeps the maximum descriptors per CDNA enqueue
// hypercall (§3.3's batching): smaller batches pay the hypercall base
// cost more often, growing hypervisor time.
func AblationBatching(o Opts, batches []int) (*stats.Table, []Result, error) {
	cfgs := make([]Config, len(batches))
	for i, b := range batches {
		cfgs[i] = DefaultConfig(ModeCDNA, NICRice, Tx)
		cfgs[i].MaxEnqueueBatch = b
	}
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: []string{"MaxBatch", "Mb/s", "Hyp", "Idle"}}
	for i, b := range batches {
		label := fmt.Sprintf("%d", b)
		if b <= 0 {
			label = "unlimited"
		}
		res := results[i]
		t.AddRow(label, fmt.Sprintf("%.0f", res.Mbps), fmtPct(res.Profile.Hyp), fmtPct(res.Profile.Idle))
	}
	return t, results, nil
}

// AblationInterrupts compares CDNA's DMA'd interrupt bit vectors against
// raising a separate physical interrupt per context (§3.2 argues the
// latter creates a much higher interrupt load).
func AblationInterrupts(o Opts, guests int) (*stats.Table, []Result, error) {
	deliveries := []bool{false, true}
	cfgs := make([]Config, len(deliveries))
	for i, direct := range deliveries {
		cfgs[i] = DefaultConfig(ModeCDNA, NICRice, Tx)
		cfgs[i].Guests = guests
		cfgs[i].ConnsPerGuestPerNIC = connsFor(guests)
		cfgs[i].DirectPerContextIRQ = direct
	}
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: []string{"Delivery", "Mb/s", "Hyp", "Idle", "PhysIRQ/s"}}
	for i, direct := range deliveries {
		label := "bit vector"
		if direct {
			label = "per-context IRQ"
		}
		res := results[i]
		t.AddRow(label, fmt.Sprintf("%.0f", res.Mbps), fmtPct(res.Profile.Hyp),
			fmtPct(res.Profile.Idle), fmt.Sprintf("%.0f", res.PhysIRQPerSec))
	}
	return t, results, nil
}

// AblationCoalescing sweeps the CDNA NIC's transmit interrupt
// coalescing threshold (§5.1 notes the NIC coalescing options were
// tuned): tighter coalescing raises the interrupt rate and burns idle
// time in per-interrupt fixed costs; looser coalescing adds latency but
// returns CPU.
func AblationCoalescing(o Opts, thresholds []int) (*stats.Table, []Result, error) {
	cfgs := make([]Config, len(thresholds))
	for i, th := range thresholds {
		cfgs[i] = DefaultConfig(ModeCDNA, NICRice, Tx)
		cfgs[i].TxCoalescePkts = th
	}
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: []string{"TxCoalescePkts", "Mb/s", "Idle", "GstIntr/s"}}
	for i, th := range thresholds {
		res := results[i]
		t.AddRow(fmt.Sprintf("%d", th), fmt.Sprintf("%.0f", res.Mbps),
			fmtPct(res.Profile.Idle), fmt.Sprintf("%.0f", res.GuestIntrPerSec))
	}
	return t, results, nil
}

// ExtensionDuplex runs full-duplex traffic — beyond the paper's
// unidirectional evaluation — comparing Xen and CDNA when every guest
// both transmits and receives at once.
func ExtensionDuplex(o Opts) (*stats.Table, []Result, error) {
	rows := []labelled{
		{"Xen / Intel", DefaultConfig(ModeXen, NICIntel, Both)},
		{"CDNA / RiceNIC", DefaultConfig(ModeCDNA, NICRice, Both)},
	}
	results, err := runLabelled(o, rows)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: []string{"System", "Mb/s (agg)", "Idle", "p50 lat (us)", "p90 lat (us)"}}
	for i, row := range rows {
		res := results[i]
		t.AddRow(row.label, fmt.Sprintf("%.0f", res.Mbps), fmtPct(res.Profile.Idle),
			fmt.Sprintf("%.0f", res.LatencyP50us), fmt.Sprintf("%.0f", res.LatencyP90us))
	}
	return t, results, nil
}

// ExtensionMoreNICs tests the paper's §5.4 conjecture: "it is likely
// that with more CDNA NICs, the throughput curve would have a similar
// shape to that of software virtualization, but with a much higher
// peak." Four CDNA NICs give guests ~3.7 Gb/s of line rate; once the
// CPU saturates the curve must bend over exactly as the conjecture
// predicts.
func ExtensionMoreNICs(o Opts, guests []int) (*stats.Table, []Result, error) {
	cfgs := make([]Config, len(guests))
	for i, g := range guests {
		cfgs[i] = DefaultConfig(ModeCDNA, NICRice, Tx)
		cfgs[i].NICs = 4
		cfgs[i].Guests = g
		cfgs[i].ConnsPerGuestPerNIC = connsFor(g)
	}
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: []string{"Guests", "CDNA 4-NIC Mb/s", "Idle"}}
	for i, g := range guests {
		t.AddRow(fmt.Sprintf("%d", g), fmt.Sprintf("%.0f", results[i].Mbps), fmtPct(results[i].Profile.Idle))
	}
	return t, results, nil
}

// topologyConfigs builds the Xen-vs-CDNA transmit grid for one
// cross-host pattern over a list of rack sizes.
func topologyConfigs(hosts []int, pat Pattern) []Config {
	var cfgs []Config
	for _, h := range hosts {
		for _, mode := range []Mode{ModeXen, ModeCDNA} {
			cfg := DefaultConfig(mode, mode.DefaultNIC(), Tx)
			cfg.Hosts = h
			cfg.Pattern = pat
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// TopologyIncast sweeps the rack size under N→1 incast on the switched
// fabric: every host's guests converge on host 0, so the switch's
// root-port egress queues are the bottleneck and the two architectures
// differ in how much of the fan-in their receive path can absorb before
// the queue tail-drops. Columns report aggregate goodput, the fabric's
// drop count and deepest egress queue, and transport retransmissions.
func TopologyIncast(o Opts, hosts []int) (*stats.Table, []Result, error) {
	cfgs := topologyConfigs(hosts, PatternIncast)
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: []string{"Hosts", "System", "Mb/s", "Fairness", "SwitchDrops", "MaxQ", "Retrans"}}
	for i, cfg := range cfgs {
		res := results[i]
		t.AddRow(fmt.Sprintf("%d", cfg.Hosts), fmt.Sprintf("%v/%v", cfg.Mode, cfg.NIC),
			fmt.Sprintf("%.0f", res.Mbps), fmt.Sprintf("%.3f", res.Fairness),
			fmt.Sprintf("%d", res.FabricDrops), fmt.Sprintf("%d", res.FabricMaxDepth),
			fmt.Sprintf("%d", res.Retransmits))
	}
	return t, results, nil
}

// TopologyAllToAll runs the uniform shuffle at fixed rack sizes: every
// guest's connections spread round-robin over all remote hosts, the
// traffic matrix of a rack-scale distributed job.
func TopologyAllToAll(o Opts, hosts []int) (*stats.Table, []Result, error) {
	cfgs := topologyConfigs(hosts, PatternAllToAll)
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: []string{"Hosts", "System", "Mb/s", "Fairness", "SwitchDrops", "MaxQ", "p90 lat (us)"}}
	for i, cfg := range cfgs {
		res := results[i]
		t.AddRow(fmt.Sprintf("%d", cfg.Hosts), fmt.Sprintf("%v/%v", cfg.Mode, cfg.NIC),
			fmt.Sprintf("%.0f", res.Mbps), fmt.Sprintf("%.3f", res.Fairness),
			fmt.Sprintf("%d", res.FabricDrops), fmt.Sprintf("%d", res.FabricMaxDepth),
			fmt.Sprintf("%.0f", res.LatencyP90us))
	}
	return t, results, nil
}

// ScenarioFaults runs the fault/churn scenarios on a switched rack
// under incast: a fault-free baseline, then each fault kind, Xen vs
// CDNA. The fault fires a quarter of the way into the measurement
// window and heals a quarter later (blackouts an eighth), targeting
// host 0's first access link/port — the incast root, so recovery is on
// the critical path. Columns report goodput plus the recovery gauges:
// retransmissions (RTO recovery), switch drops (frames lost to the
// dead link/port), FDB station moves (re-learning churn after a port
// failure), and tail latency.
func ScenarioFaults(o Opts, hosts int) (*stats.Table, []Result, error) {
	faults := []FaultSpec{
		{},
		{Kind: FaultLinkFlap, After: o.Duration / 4, Outage: o.Duration / 4},
		{Kind: FaultPortFail, After: o.Duration / 4, Outage: o.Duration / 4},
		{Kind: FaultBlackout, After: o.Duration / 4, Outage: o.Duration / 8},
	}
	var cfgs []Config
	for _, f := range faults {
		for _, mode := range []Mode{ModeXen, ModeCDNA} {
			cfg := DefaultConfig(mode, mode.DefaultNIC(), Tx)
			cfg.Hosts = hosts
			cfg.Pattern = PatternIncast
			cfg.Fault = f
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: []string{"Fault", "System", "Mb/s", "LinkDrops", "SwitchDrops", "Flooded", "Retrans", "p90 lat (us)"}}
	for i, cfg := range cfgs {
		res := results[i]
		t.AddRow(cfg.Fault.Kind.String(), fmt.Sprintf("%v/%v", cfg.Mode, cfg.NIC),
			fmt.Sprintf("%.0f", res.Mbps), fmt.Sprintf("%d", res.LinkDrops),
			fmt.Sprintf("%d", res.FabricDrops), fmt.Sprintf("%d", res.FabricFlooded),
			fmt.Sprintf("%d", res.Retransmits), fmt.Sprintf("%.0f", res.LatencyP90us))
	}
	return t, results, nil
}

// fabricSpecOf is the standard multi-tier shape the fabric scenarios
// use: two hosts per leaf/edge, two spines (or two aggregations and two
// cores per pod), under the given oversubscription ratio.
func fabricSpecOf(kind topo.FabricKind, oversub float64) topo.FabricSpec {
	if kind == topo.KindToR {
		return topo.FabricSpec{}
	}
	return topo.FabricSpec{Kind: kind, HostsPerLeaf: 2, Spines: 2, Oversub: oversub}
}

// FabricIncast is the cross-rack incast collapse scenario: N→1 fan-in
// where the spokes sit in *different racks* than the root, so the
// convergence point moves from a single ToR's egress port onto the
// multi-tier fabric's downlink toward the root's leaf. Rows compare the
// single ToR against leaf-spine and fat-tree fabrics, Xen vs CDNA.
func FabricIncast(o Opts, hosts int) (*stats.Table, []Result, error) {
	kinds := []topo.FabricKind{topo.KindToR, topo.KindLeafSpine, topo.KindFatTree}
	var cfgs []Config
	for _, kind := range kinds {
		for _, mode := range []Mode{ModeXen, ModeCDNA} {
			cfg := DefaultConfig(mode, mode.DefaultNIC(), Tx)
			cfg.Hosts = hosts
			cfg.Pattern = PatternIncast
			cfg.Fabric = fabricSpecOf(kind, 1)
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: []string{"Fabric", "System", "Mb/s", "SwitchDrops", "MaxQ", "Flooded", "Retrans"}}
	for i, cfg := range cfgs {
		res := results[i]
		t.AddRow(cfg.Fabric.Kind.String(), fmt.Sprintf("%v/%v", cfg.Mode, cfg.NIC),
			fmt.Sprintf("%.0f", res.Mbps), fmt.Sprintf("%d", res.FabricDrops),
			fmt.Sprintf("%d", res.FabricMaxDepth), fmt.Sprintf("%d", res.FabricFlooded),
			fmt.Sprintf("%d", res.Retransmits))
	}
	return t, results, nil
}

// FabricOversub is the core-link saturation scenario: disjoint host
// pairs on a leaf-spine fabric with one host per leaf, so *every* flow
// crosses the spine tier, while the oversubscription ratio starves the
// trunks. At 1:1 the spine tier is transparent; as the ratio grows,
// flows queue and tail-drop at the leaf uplinks — goodput degrades and
// the deepest queue moves from the access ports onto the trunks. (An
// all-to-all pattern would muddy the signal: throttled trunks also
// relieve fan-in pressure at host egress ports, so total drops are not
// monotone in the ratio there.)
func FabricOversub(o Opts, oversubs []float64) (*stats.Table, []Result, error) {
	cfgs := make([]Config, len(oversubs))
	for i, ov := range oversubs {
		cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
		cfg.Hosts = 4
		cfg.Pattern = PatternPairs
		cfg.Fabric = topo.FabricSpec{Kind: topo.KindLeafSpine, HostsPerLeaf: 1, Spines: 2, Oversub: ov}
		cfgs[i] = cfg
	}
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: []string{"Oversub", "Mb/s", "SwitchDrops", "MaxQ", "Retrans", "p90 lat (us)"}}
	for i, ov := range oversubs {
		res := results[i]
		t.AddRow(fmt.Sprintf("%g:1", ov), fmt.Sprintf("%.0f", res.Mbps),
			fmt.Sprintf("%d", res.FabricDrops), fmt.Sprintf("%d", res.FabricMaxDepth),
			fmt.Sprintf("%d", res.Retransmits), fmt.Sprintf("%.0f", res.LatencyP90us))
	}
	return t, results, nil
}

// ScenarioOpenLoop compares Xen and CDNA under open-loop load: Poisson
// flow arrivals (web-search flow sizes) from a modeled client
// population converging incast-style across a leaf-spine fabric.
// Because arrivals do not slow down when the receive path saturates,
// the overloaded architecture shows response-time collapse — arrivals
// outrun completions and the p99 flow latency grows with the backlog —
// which the closed-loop scenarios structurally cannot exhibit.
func ScenarioOpenLoop(o Opts, rates []float64) (*stats.Table, []Result, error) {
	var cfgs []Config
	for _, rate := range rates {
		for _, mode := range []Mode{ModeXen, ModeCDNA} {
			cfg := DefaultConfig(mode, mode.DefaultNIC(), Tx)
			cfg.Hosts = 4
			cfg.Pattern = PatternIncast
			cfg.Fabric = fabricSpecOf(topo.KindLeafSpine, 1)
			cfg.Workload = workload.Spec{
				Kind:     workload.Poisson,
				FlowRate: rate,
				SizeDist: workload.SizeWebSearch,
			}
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: []string{"Rate/ep", "System", "Arrivals/s", "Flows/s", "p50 lat (us)", "p99 lat (us)", "SwitchDrops"}}
	for i, cfg := range cfgs {
		res := results[i]
		t.AddRow(fmt.Sprintf("%g", cfg.Workload.FlowRate), fmt.Sprintf("%v/%v", cfg.Mode, cfg.NIC),
			fmt.Sprintf("%.0f", res.ArrivalsPerSec), fmt.Sprintf("%.0f", res.FlowsPerSec),
			fmt.Sprintf("%.0f", res.MsgLatP50us), fmt.Sprintf("%.0f", res.MsgLatP99us),
			fmt.Sprintf("%d", res.FabricDrops))
	}
	return t, results, nil
}

// AblationIOMMU reproduces §5.3's discussion: protection by hypercall,
// by a context-aware IOMMU (guest enqueues directly), and disabled.
func AblationIOMMU(o Opts) (*stats.Table, []Result, error) {
	modes := []core.Mode{core.ModeHypercall, core.ModeIOMMU, core.ModeOff}
	cfgs := make([]Config, len(modes))
	for i, mode := range modes {
		cfgs[i] = DefaultConfig(ModeCDNA, NICRice, Tx)
		cfgs[i].Protection = mode
	}
	results, err := o.runBatch(cfgs)
	if err != nil {
		return nil, nil, err
	}
	t := &stats.Table{Header: []string{"Protection", "Mb/s", "Hyp", "Idle"}}
	for i, mode := range modes {
		res := results[i]
		t.AddRow(mode.String(), fmt.Sprintf("%.0f", res.Mbps), fmtPct(res.Profile.Hyp), fmtPct(res.Profile.Idle))
	}
	return t, results, nil
}
