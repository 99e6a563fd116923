package main

import (
	"fmt"

	"cdna/internal/bench"
	"cdna/internal/campaign"
	"cdna/internal/sim"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

// Workload is one named, closed batch of experiments. Its configurations
// are a pure function of the seed, which reaches the simulator only
// through the generated configs (workload.Spec.Seed).
type Workload struct {
	Name    string
	Configs func(seed uint64) []bench.Config
}

// workloads are the benchmark's workloads. README.md records why each
// was chosen.
var workloads = []Workload{
	{
		Name:    "paper",
		Configs: paperConfigs,
	},
	{
		Name:    "openloop",
		Configs: openLoopConfigs,
	},
	{
		Name:    "rack16",
		Configs: rack16Configs,
	},
}

func lookupWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// paperConfigs is campaign.PaperGrids() at the short windows the shape
// tests use. Bulk traffic draws no random numbers, so the seed changes
// the recorded configs but not the simulated outputs.
func paperConfigs(seed uint64) []bench.Config {
	cfgs := campaign.Apply(campaign.Expand(campaign.PaperGrids()...),
		150*sim.Millisecond, 300*sim.Millisecond)
	for i := range cfgs {
		cfgs[i].Workload.Seed = seed
	}
	return cfgs
}

// openLoopRates are the per-client flow arrival rates (flows/s): 20 is
// below saturation, 50/500/4000 are campaign.OpenLoopGrids' rates.
var openLoopRates = []float64{20, 50, 500, 4000}

// openLoopStreams is how many independent arrival streams each point
// runs, each from its own seed derived from the workload seed. The
// heavy-tailed data-mining flows make one stream's work depend strongly
// on its seed; four short windows average that out where one long
// window would not.
const openLoopStreams = 4

// openLoopConfigs is a 4-host incast over leaf-spine (2 hosts per leaf,
// 2 spines), Xen and CDNA, Poisson/web-search and Pareto/data-mining
// arrivals at each rate, each point run on openLoopStreams arrival
// streams: 64 experiments. The fabric keeps its default ECMP salt: the
// salt decides whether the cross-leaf flows share a spine, which changes
// the work far more than any stream does.
func openLoopConfigs(seed uint64) []bench.Config {
	var shapes []workload.Spec
	for s := seed * openLoopStreams; s < (seed+1)*openLoopStreams; s++ {
		for _, rate := range openLoopRates {
			shapes = append(shapes,
				workload.Spec{Kind: workload.Poisson, FlowRate: rate, SizeDist: workload.SizeWebSearch, Seed: s},
				workload.Spec{Kind: workload.Pareto, FlowRate: rate, SizeDist: workload.SizeDataMining, Seed: s},
			)
		}
	}
	g := campaign.Grid{
		Modes:     []bench.Mode{bench.ModeXen, bench.ModeCDNA},
		Dirs:      []bench.Direction{bench.Tx},
		Hosts:     []int{4},
		Patterns:  []bench.Pattern{bench.PatternIncast},
		Fabrics:   []topo.FabricSpec{{Kind: topo.KindLeafSpine, HostsPerLeaf: 2, Spines: 2}},
		Workloads: shapes,
		Warmup:    30 * sim.Millisecond,
		Duration:  120 * sim.Millisecond,
	}
	return g.Points()
}

// rack16Configs is one CDNA 16-host all-to-all bulk experiment over
// leaf-spine (4 hosts per leaf, 2 spines). Bulk traffic draws no random
// numbers, and the fabric keeps its default ECMP salt (one salt ran 30%
// fewer events than another), so the seed changes the recorded config
// but not the work.
func rack16Configs(seed uint64) []bench.Config {
	g := campaign.Grid{
		Modes:     []bench.Mode{bench.ModeCDNA},
		Dirs:      []bench.Direction{bench.Tx},
		Hosts:     []int{16},
		Patterns:  []bench.Pattern{bench.PatternAllToAll},
		Fabrics:   []topo.FabricSpec{{Kind: topo.KindLeafSpine, HostsPerLeaf: 4, Spines: 2}},
		Workloads: []workload.Spec{{Seed: seed}},
		Warmup:    50 * sim.Millisecond,
		Duration:  200 * sim.Millisecond,
	}
	return g.Points()
}
