package main

import (
	"sort"
	"testing"

	"cdna/internal/core/corebench"
	"cdna/internal/ether/etherbench"
	"cdna/internal/nic/nicbench"
	"cdna/internal/sim/simbench"
	"cdna/internal/topo/topobench"
	"cdna/internal/transport/transportbench"
)

// layerProbe times isolated calls into one layer's public API through
// the repository's existing benchmark harness.
type layerProbe struct {
	Name string // metric prefix; the metrics are <Name>_ns and <Name>_allocs
	Fn   func(*testing.B)
}

var layerProbes = []layerProbe{
	{"sim.schedule_fire", simbench.ScheduleFire},
	{"sim.schedule_fire_depth64", simbench.ScheduleFireDepth64},
	{"sim.rto_churn", simbench.RTOChurn},
	{"topo.forward", topobench.Forward},
	{"nic.tx_pipeline", nicbench.TxPipeline},
	{"transport.segment", transportbench.Segment},
	{"ether.frame_arena", etherbench.FrameArena},
	{"core.guest_dma", corebench.GuestDMA},
}

// probeRuns is how many times each probe is measured; the median is
// reported.
const probeRuns = 3

// probeResult is one probe's median time per op and its allocs per op.
type probeResult struct {
	NsPerOp     float64
	AllocsPerOp int64
}

// runProbe measures a probe probeRuns times at the benchtime set on the
// test.benchtime flag.
func runProbe(p layerProbe) probeResult {
	ns := make([]float64, probeRuns)
	var allocs int64
	for i := range ns {
		r := testing.Benchmark(p.Fn)
		ns[i] = float64(r.T.Nanoseconds()) / float64(r.N)
		allocs = max(allocs, r.AllocsPerOp())
	}
	sort.Float64s(ns)
	return probeResult{NsPerOp: ns[len(ns)/2], AllocsPerOp: allocs}
}
