package campaign

import (
	"cdna/internal/bench"
	"cdna/internal/core"
	"cdna/internal/sim"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

// Grid is a declarative experiment space: the cross-product of every
// populated axis. Empty axes collapse to the single default value, so a
// zero Grid expands to one default CDNA transmit experiment. Grids
// marshal to/from JSON with enum axes as strings ("xen", "ricenic",
// "tx", "hypercall", ...), which is the cmd/cdnasweep -spec file
// format.
type Grid struct {
	Modes       []bench.Mode      `json:"modes,omitempty"`
	NICs        []bench.NICKind   `json:"nics,omitempty"`
	Dirs        []bench.Direction `json:"dirs,omitempty"`
	Guests      []int             `json:"guests,omitempty"`
	NICCounts   []int             `json:"nic_counts,omitempty"`
	Protections []core.Mode       `json:"protections,omitempty"`

	// Hosts is the fabric-size axis (machines on the top-of-rack
	// switch); empty or 1 collapses to the classic host-plus-peer
	// topology. Patterns is the cross-host scenario axis, collapsed for
	// single-host points where it is meaningless.
	Hosts    []int           `json:"hosts,omitempty"`
	Patterns []bench.Pattern `json:"patterns,omitempty"`

	// Fabrics is the switching-topology axis (single ToR, leaf-spine,
	// fat-tree, at chosen oversubscription ratios); empty collapses to
	// the single ToR switch. Multi-tier specs are collapsed out of
	// single-host points, which have no cross-host fabric to shape.
	Fabrics []topo.FabricSpec `json:"fabrics,omitempty"`

	// Workloads is the traffic-shape axis; empty collapses to the
	// default bulk workload (the paper's benchmark).
	Workloads []workload.Spec `json:"workloads,omitempty"`

	// Faults is the fault/churn scenario axis; empty collapses to the
	// fault-free run. A spec with zero Outage gets the default schedule
	// (injection a quarter into the window, quarter-window outage), so
	// an axis can name just the kinds. Single-host points drop
	// FaultPortFail, which needs a switched fabric, the same way the
	// pattern axis collapses.
	Faults []bench.FaultSpec `json:"faults,omitempty"`

	// Ablation axes (CDNA only; see bench.Config).
	MaxEnqueueBatches []int  `json:"max_enqueue_batches,omitempty"` // A2
	IRQDeliveries     []bool `json:"irq_deliveries,omitempty"`      // A1: DirectPerContextIRQ
	TxCoalesce        []int  `json:"tx_coalesce_pkts,omitempty"`    // A5

	// Scalar overrides applied to every point (0 = bench default).
	Conns  int `json:"conns_per_guest_per_nic,omitempty"`
	Window int `json:"window,omitempty"`

	Warmup   sim.Time `json:"warmup_ns,omitempty"`
	Duration sim.Time `json:"duration_ns,omitempty"`
}

func modesOr(v []bench.Mode) []bench.Mode {
	if len(v) == 0 {
		return []bench.Mode{bench.ModeCDNA}
	}
	return v
}

func intsOr(v []int, def int) []int {
	if len(v) == 0 {
		return []int{def}
	}
	return v
}

func boolsOr(v []bool) []bool {
	if len(v) == 0 {
		return []bool{false}
	}
	return v
}

func dirsOr(v []bench.Direction) []bench.Direction {
	if len(v) == 0 {
		return []bench.Direction{bench.Tx}
	}
	return v
}

func workloadsOr(v []workload.Spec) []workload.Spec {
	if len(v) == 0 {
		return []workload.Spec{{}}
	}
	return v
}

// patternsFor collapses the pattern axis for single-host points, where
// the builder ignores it.
func (g Grid) patternsFor(hosts int) []bench.Pattern {
	if hosts <= 1 || len(g.Patterns) == 0 {
		return []bench.Pattern{bench.PatternPairs}
	}
	return g.Patterns
}

// faultsFor collapses fabric-only fault scenarios out of the axis for
// single-host points (a port failure needs a switch to fail).
func (g Grid) faultsFor(hosts int) []bench.FaultSpec {
	if len(g.Faults) == 0 {
		return []bench.FaultSpec{{}}
	}
	if hosts > 1 {
		return g.Faults
	}
	var specs []bench.FaultSpec
	for _, f := range g.Faults {
		if f.Kind != bench.FaultPortFail {
			specs = append(specs, f)
		}
	}
	if len(specs) == 0 {
		return []bench.FaultSpec{{}}
	}
	return specs
}

// fabricsFor collapses the fabric-topology axis for single-host
// points: multi-tier fabrics need a multi-host rack, so only the ToR
// entries survive there (and at least the default ToR always does).
func (g Grid) fabricsFor(hosts int) []topo.FabricSpec {
	if len(g.Fabrics) == 0 {
		return []topo.FabricSpec{{}}
	}
	if hosts > 1 {
		return g.Fabrics
	}
	var specs []topo.FabricSpec
	for _, f := range g.Fabrics {
		if f.Kind == topo.KindToR {
			specs = append(specs, f)
		}
	}
	if len(specs) == 0 {
		return []topo.FabricSpec{{}}
	}
	return specs
}

// nicsFor returns the NIC axis for one mode: only Xen supports both
// device models; native always drives the Intel NIC and CDNA always
// the RiceNIC, so their NIC axis collapses.
func (g Grid) nicsFor(m bench.Mode) []bench.NICKind {
	if m == bench.ModeNative || m == bench.ModeCDNA || len(g.NICs) == 0 {
		return []bench.NICKind{m.DefaultNIC()}
	}
	return g.NICs
}

// protectionsFor collapses the protection axis for non-CDNA modes,
// where it is ignored by the builder.
func (g Grid) protectionsFor(m bench.Mode) []core.Mode {
	if m != bench.ModeCDNA || len(g.Protections) == 0 {
		return []core.Mode{core.ModeHypercall}
	}
	return g.Protections
}

// Points expands the grid into its cross-product of configurations.
// Axes that a mode ignores collapse to one value (protection and the
// ablation axes are CDNA-only; native has no guest axis), so the
// expansion never contains two configurations the simulator would treat
// identically. Expansion order is deterministic: the rightmost axis
// varies fastest.
func (g Grid) Points() []bench.Config {
	var cfgs []bench.Config
	seen := make(map[bench.Config]bool)
	for _, mode := range modesOr(g.Modes) {
		guests := intsOr(g.Guests, 1)
		batches, irqs, coals := intsOr(g.MaxEnqueueBatches, 0), boolsOr(g.IRQDeliveries), intsOr(g.TxCoalesce, 0)
		if mode != bench.ModeCDNA {
			batches, irqs, coals = []int{0}, []bool{false}, []int{0}
		}
		if mode == bench.ModeNative {
			// Native mode has no VMM: the host OS is the only "guest".
			guests = []int{1}
		}
		for _, nic := range g.nicsFor(mode) {
			for _, dir := range dirsOr(g.Dirs) {
				for _, wl := range workloadsOr(g.Workloads) {
					for _, gs := range guests {
						for _, nn := range intsOr(g.NICCounts, 2) {
							for _, hosts := range intsOr(g.Hosts, 1) {
								for _, pat := range g.patternsFor(hosts) {
									for _, fab := range g.fabricsFor(hosts) {
										for _, flt := range g.faultsFor(hosts) {
											for _, prot := range g.protectionsFor(mode) {
												for _, batch := range batches {
													for _, irq := range irqs {
														for _, coal := range coals {
															cfg := bench.DefaultConfig(mode, nic, dir)
															cfg.Workload = wl
															cfg.Guests = gs
															cfg.NICs = nn
															if hosts > 1 {
																cfg.Hosts = hosts
																cfg.Pattern = pat
																cfg.Fabric = fab
															}
															cfg.Fault = flt
															cfg.Protection = prot
															cfg.MaxEnqueueBatch = batch
															cfg.DirectPerContextIRQ = irq
															cfg.TxCoalescePkts = coal
															cfg.ConnsPerGuestPerNIC = g.Conns
															// Invalid guest counts stay as-is here and fail
															// Config.Validate with a per-point error record.
															if g.Conns <= 0 && gs >= 1 {
																cfg.ConnsPerGuestPerNIC = bench.BalancedConns(gs)
															}
															if g.Window > 0 {
																cfg.Window = g.Window
															}
															if g.Warmup > 0 {
																cfg.Warmup = g.Warmup
															}
															if g.Duration > 0 {
																cfg.Duration = g.Duration
															}
															key := cfg
															key.Cal = bench.Calibration{}
															if !seen[key] {
																seen[key] = true
																cfgs = append(cfgs, cfg)
															}
														}
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cfgs
}

// Expand concatenates the expansions of several grids, deduplicating
// across them while preserving first-occurrence order. Sets compose
// this way: the full paper is Expand(PaperGrids()...).
func Expand(grids ...Grid) []bench.Config {
	var cfgs []bench.Config
	seen := make(map[bench.Config]bool)
	for _, g := range grids {
		for _, cfg := range g.Points() {
			key := cfg
			key.Cal = bench.Calibration{}
			if !seen[key] {
				seen[key] = true
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// Apply sets the measurement windows on every configuration; zero
// fields are left at each configuration's current value.
func Apply(cfgs []bench.Config, warmup, duration sim.Time) []bench.Config {
	for i := range cfgs {
		if warmup > 0 {
			cfgs[i].Warmup = warmup
		}
		if duration > 0 {
			cfgs[i].Duration = duration
		}
	}
	return cfgs
}
