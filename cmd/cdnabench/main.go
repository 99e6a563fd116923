// Command cdnabench measures the simulator's own performance — the
// foundation-layer event core, one end-to-end experiment, and the
// checkpoint/restore layer (snapshot_roundtrip and warmstart_fork) — and
// writes the result as JSON, so the repository's perf trajectory is a
// committed artifact rather than folklore. `make bench` runs it and
// emits BENCH_sim.json; `make bench-check` replays a short run and
// fails on regression.
//
// Usage:
//
//	cdnabench                     # print JSON to stdout
//	cdnabench -out BENCH_sim.json # write to a file
//	cdnabench -benchtime 2s       # longer micro-benchmark windows
//	cdnabench -short              # quick windows (CI's bench-check)
//	cdnabench -ref other.json     # embed another build's rows as the
//	                              # reference block (side by side)
//	cdnabench -compare old.json   # diff this run against a committed
//	                              # BENCH_sim.json; exit 1 when any
//	                              # ns/event metric regressed >15%
//	cdnabench -compare old.json -with new.json
//	                              # pure file diff, no measurement
//	cdnabench -tol 10             # tighten the regression tolerance (%)
//	cdnabench -run 'model\.'      # measure only matching rows (local
//	                              # iteration; skipped rows report zero)
//
// The binary reports the engine's event queue ("scheduler": wheel).
//
// The seed_baseline block records the pre-refactor engine (heap
// allocation per event through container/heap) measured on the same
// class of machine when the zero-allocation core landed; the headline
// acceptance bars are engine.schedule_fire events/sec at ≥2× that
// baseline with zero allocs/op, and (since the timing-wheel PR)
// end-to-end events/sec at ≥1.5× the PR 2 heap engine's committed run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"

	"cdna/internal/bench"
	"cdna/internal/core"
	"cdna/internal/core/corebench"
	"cdna/internal/ether/etherbench"
	"cdna/internal/nic/nicbench"
	"cdna/internal/sim"
	"cdna/internal/sim/simbench"
	"cdna/internal/topo"
	"cdna/internal/topo/topobench"
	"cdna/internal/transport/transportbench"
	"cdna/internal/workload"
)

// Row is one micro-benchmark's distilled result. The timing is the
// median of five measurement windows; SpreadPct records the window
// scatter ((max-min)/median) so a noisy measuring machine is visible
// in the artifact instead of silently widening the regression gate.
type Row struct {
	NsPerEvent   float64 `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	SpreadPct    float64 `json:"spread_pct,omitempty"`
}

// timingRuns is how many times each wall-clock row is measured; the
// reported figure is the median. A median of five tolerates two
// outlier windows where best-of-three tolerated none slow-side — the
// difference between a flaky -compare gate and a stable one on shared
// builders.
const timingRuns = 5

// medianIdx returns the index of the median sample (lower middle) and
// the spread percentage (max-min relative to the median).
func medianIdx(samples []float64) (int, float64) {
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return samples[idx[a]] < samples[idx[b]] })
	mid := idx[(len(idx)-1)/2]
	spread := 0.0
	if m := samples[mid]; m > 0 {
		spread = (samples[idx[len(idx)-1]] - samples[idx[0]]) / m * 100
	}
	return mid, spread
}

func row(r testing.BenchmarkResult) Row {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	out := Row{NsPerEvent: ns, AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
	if ns > 0 {
		out.EventsPerSec = 1e9 / ns
	}
	return out
}

// EngineRows are the event-core micro-benchmarks (one simulated event
// per op), in simbench.
type EngineRows struct {
	ScheduleFire        Row `json:"schedule_fire"`         // pooled event, bound callback
	ScheduleFireClosure Row `json:"schedule_fire_closure"` // fresh capturing closure per event
	ScheduleFireDepth64 Row `json:"schedule_fire_depth64"` // under a standing queue population
	TimerRearm          Row `json:"timer_rearm"`           // persistent timer re-armed in place
	Cancel              Row `json:"cancel"`                // schedule→cancel→recycle
	CancelHeavy         Row `json:"cancel_heavy"`          // cancel under standing load
	RTOChurn            Row `json:"rto_churn"`             // far-future timer re-arm churn
}

// ModelRows are the model-layer micro-benchmarks — the paths between
// the event core and a whole experiment, each holding the same zero
// allocs/op contract the engine rows do. One op is one model-level
// unit of work (a packet, a descriptor, a segment, a frame lifecycle);
// the benchmark bodies live next to the packages they measure
// (internal/nic/nicbench, internal/core/corebench,
// internal/transport/transportbench, internal/ether/etherbench).
type ModelRows struct {
	NicTxPipeline    Row `json:"nic_tx_pipeline"`   // doorbell→fetch→process→DMA→wire→reap
	GuestDMA         Row `json:"guest_dma"`         // hypercall validate+pin+stamp+publish
	TransportSegment Row `json:"transport_segment"` // pooled segment send→deliver→ack round trip
	FrameArena       Row `json:"frame_arena"`       // arena Get→pipe traversal→Release
}

// Report is the BENCH_sim.json schema.
type Report struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`

	// GOMAXPROCS records the core count of the measuring machine. The
	// sharded multi-host rows depend on it directly (shards execute in
	// parallel), so -compare skips their regression gate when the two
	// reports were measured at different core counts.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`

	// Scheduler is the engine's event queue (sim.SchedulerName).
	Scheduler string `json:"scheduler"`

	Engine EngineRows `json:"engine"`

	// Model holds the model-layer rows (see ModelRows).
	Model ModelRows `json:"model"`

	// Fabric is the multi-host switch's hot path (internal/topo): one
	// store-and-forward traversal per op — ingress, forwarding decision,
	// bounded egress FIFO, line-rate serialization, delivery. The
	// allocs/op gate holds here exactly as for the engine rows.
	Fabric Row `json:"fabric_forward"`

	// One full experiment (CDNA transmit, quick windows) timed end to
	// end: the whole-machine events/sec the engine work buys. Median of
	// five runs, so a background scheduling hiccup on the measuring
	// machine does not masquerade as a simulator regression (or a
	// lucky fast window as a speedup).
	EndToEnd EndToEnd `json:"end_to_end"`

	// MultiHost is the same end-to-end timing for a 4-host CDNA incast
	// on the switched fabric — the cluster-scale row: four machines'
	// worth of model per simulated second through one engine.
	MultiHost EndToEnd `json:"multi_host_end_to_end"`

	// MultiHostShards{2,4} rerun the multi-host row with the machine
	// partitioned over 2 and 4 engine shards (Config.Shards). Results
	// are byte-identical to the single-engine row by contract; the wall
	// clock measures what the sharded executor costs or buys. On a
	// single-core machine the shards execute sequentially, so these rows
	// carry the barrier/seam overhead, not a parallel speedup — see
	// EXPERIMENTS.md.
	MultiHostShards2 EndToEnd `json:"multi_host_end_to_end_shards2"`
	MultiHostShards4 EndToEnd `json:"multi_host_end_to_end_shards4"`

	// FabricLeafSpine reruns the multi-host incast over a two-tier
	// leaf-spine fabric (internal/topo multi-switch path: ECMP hashing,
	// trunk pipes, valley-free forwarding on every cross-leaf frame).
	FabricLeafSpine EndToEnd `json:"fabric_leafspine_end_to_end"`

	// OpenLoop is the open-loop workload row: Poisson flow arrivals
	// (web-search sizes) incast across the leaf-spine fabric — the
	// arrival timer, backlog FIFO and per-flow bookkeeping on top of the
	// fabric row above.
	OpenLoop EndToEnd `json:"open_loop_end_to_end"`

	// SnapRoundTrip times the checkpoint/restore layer on the same
	// machine: one Snapshot of a mid-window run (live queues, armed
	// timers, open windows) and one Restore of that image into a freshly
	// built machine. Median of five, like every wall-clock row.
	SnapRoundTrip SnapRoundTrip `json:"snapshot_roundtrip"`

	// WarmstartFork times warm-start forking against cold execution: a
	// three-point fault grid (baseline, link flap, blackout) run cold
	// and then forked from one shared warmup snapshot. The forked
	// results are byte-identical to the cold ones; only the redundant
	// warmup simulation is saved.
	WarmstartFork WarmstartFork `json:"warmstart_fork"`

	// Reference carries another build's rows for side-by-side reading
	// (cdnabench -ref).
	Reference *Reference `json:"reference,omitempty"`

	// The seed engine measured immediately before the zero-allocation
	// refactor (BenchmarkBaselineScheduleFire on the reference builder:
	// Xeon @2.70GHz, go1.24): 81.5 ns/event, 1 alloc/64 B per event.
	SeedBaseline struct {
		NsPerEvent  float64 `json:"ns_per_event"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	} `json:"seed_baseline"`

	// SpeedupVsSeed is schedule_fire events/sec over the seed baseline,
	// valid when run on comparable hardware.
	SpeedupVsSeed float64 `json:"speedup_vs_seed"`
}

// EndToEnd is one wall-clock-timed whole-machine run: the median of
// five runs, with the run-to-run wall-clock scatter recorded.
type EndToEnd struct {
	Config        string  `json:"config"`
	Events        uint64  `json:"events"`
	WallSeconds   float64 `json:"wall_seconds"`
	EventsPerSec  float64 `json:"events_per_sec"`
	Mbps          float64 `json:"mbps"`
	WallSpreadPct float64 `json:"wall_spread_pct,omitempty"`
}

// SnapRoundTrip is the checkpoint/restore timing row.
type SnapRoundTrip struct {
	Config           string  `json:"config"`
	Bytes            int     `json:"bytes"`
	SnapshotSeconds  float64 `json:"snapshot_seconds"`
	RestoreSeconds   float64 `json:"restore_seconds"`
	RoundTripsPerSec float64 `json:"round_trips_per_sec"`
}

// WarmstartFork is the warm-start forking row: one fault grid run cold
// and forked, with the shared-warmup savings.
type WarmstartFork struct {
	Config        string  `json:"config"`
	Runs          int     `json:"runs"`
	Groups        int     `json:"groups"`
	WarmupEvents  uint64  `json:"warmup_events"`
	EventsSaved   uint64  `json:"events_saved"`
	ColdSeconds   float64 `json:"cold_wall_seconds"`
	ForkedSeconds float64 `json:"forked_wall_seconds"`
	Speedup       float64 `json:"speedup"`
}

// Reference is an embedded secondary measurement (see Report.Reference).
type Reference struct {
	Scheduler        string     `json:"scheduler"`
	Engine           EngineRows `json:"engine"`
	Model            ModelRows  `json:"model"`
	Fabric           Row        `json:"fabric_forward"`
	EndToEnd         EndToEnd   `json:"end_to_end"`
	MultiHost        EndToEnd   `json:"multi_host_end_to_end"`
	MultiHostShards2 EndToEnd   `json:"multi_host_end_to_end_shards2"`
	MultiHostShards4 EndToEnd   `json:"multi_host_end_to_end_shards4"`
	FabricLeafSpine  EndToEnd   `json:"fabric_leafspine_end_to_end"`
	OpenLoop         EndToEnd   `json:"open_loop_end_to_end"`
}

func measure(benchtime time.Duration, match func(string) bool) (*Report, error) {
	if f := flag.Lookup("test.benchtime"); f != nil {
		if err := f.Value.Set(benchtime.String()); err != nil {
			return nil, err
		}
	}
	var rep Report
	rep.GoVersion = runtime.Version()
	rep.GOARCH = runtime.GOARCH
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Scheduler = sim.SchedulerName

	// Micro rows are the median of five windows, like the end-to-end
	// rows below: on a shared or frequency-scaled machine a single
	// measurement window can land in a slow phase and masquerade as a
	// hot-path regression, and a best-of selection is biased fast by the
	// same noise. The allocs/op figures are identical across runs
	// (allocation is deterministic); only the timing varies. Rows whose
	// name does not match the -run filter are skipped and report as zero.
	best := func(name string, out *Row, fn func(*testing.B)) {
		if !match(name) {
			return
		}
		rows := make([]Row, timingRuns)
		ns := make([]float64, timingRuns)
		for i := range rows {
			rows[i] = row(testing.Benchmark(fn))
			ns[i] = rows[i].NsPerEvent
		}
		mid, spread := medianIdx(ns)
		*out = rows[mid]
		out.AllocsPerOp, out.BytesPerOp = rows[0].AllocsPerOp, rows[0].BytesPerOp
		out.SpreadPct = spread
	}
	best("engine.schedule_fire", &rep.Engine.ScheduleFire, simbench.ScheduleFire)
	best("engine.schedule_fire_closure", &rep.Engine.ScheduleFireClosure, simbench.ScheduleFireClosure)
	best("engine.schedule_fire_depth64", &rep.Engine.ScheduleFireDepth64, simbench.ScheduleFireDepth64)
	best("engine.timer_rearm", &rep.Engine.TimerRearm, simbench.TimerRearm)
	best("engine.cancel", &rep.Engine.Cancel, simbench.Cancel)
	best("engine.cancel_heavy", &rep.Engine.CancelHeavy, simbench.CancelHeavy)
	best("engine.rto_churn", &rep.Engine.RTOChurn, simbench.RTOChurn)
	best("fabric.forward", &rep.Fabric, topobench.Forward)
	best("model.nic_tx_pipeline", &rep.Model.NicTxPipeline, nicbench.TxPipeline)
	best("model.guest_dma", &rep.Model.GuestDMA, corebench.GuestDMA)
	best("model.transport_segment", &rep.Model.TransportSegment, transportbench.Segment)
	best("model.frame_arena", &rep.Model.FrameArena, etherbench.FrameArena)

	endToEnd := func(name string, cfg bench.Config, out *EndToEnd) error {
		if !match(name) {
			return nil
		}
		cfg.Protection = core.ModeHypercall
		cfg.Warmup = bench.Quick().Warmup
		cfg.Duration = bench.Quick().Duration
		walls := make([]float64, timingRuns)
		var events uint64
		var mbps float64
		for i := range walls {
			start := time.Now()
			res, err := bench.Run(cfg)
			walls[i] = time.Since(start).Seconds()
			if err != nil {
				return fmt.Errorf("end-to-end run failed: %w", err)
			}
			// The simulation is deterministic: events and Mbps are
			// identical across runs; only the wall clock varies.
			events, mbps = res.Events, res.Mbps
		}
		mid, spread := medianIdx(walls)
		out.Config = cfg.Name()
		out.Events = events
		out.WallSeconds = walls[mid]
		out.Mbps = mbps
		out.WallSpreadPct = spread
		if out.WallSeconds > 0 {
			out.EventsPerSec = float64(out.Events) / out.WallSeconds
		}
		return nil
	}
	if err := endToEnd("end_to_end", bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx), &rep.EndToEnd); err != nil {
		return nil, err
	}
	mh := bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx)
	mh.Hosts = 4
	mh.Pattern = bench.PatternIncast
	if err := endToEnd("multi_host", mh, &rep.MultiHost); err != nil {
		return nil, err
	}
	for _, s := range []struct {
		name string
		n    int
		out  *EndToEnd
	}{{"multi_host_shards2", 2, &rep.MultiHostShards2}, {"multi_host_shards4", 4, &rep.MultiHostShards4}} {
		cfg := mh
		cfg.Shards = s.n
		if err := endToEnd(s.name, cfg, s.out); err != nil {
			return nil, err
		}
	}
	ls := mh
	ls.Fabric = topo.FabricSpec{Kind: topo.KindLeafSpine, HostsPerLeaf: 2, Spines: 2}
	if err := endToEnd("fabric_leafspine", ls, &rep.FabricLeafSpine); err != nil {
		return nil, err
	}
	ol := ls
	ol.Workload = workload.Spec{Kind: workload.Poisson, FlowRate: 2000, SizeDist: workload.SizeWebSearch}
	if err := endToEnd("open_loop", ol, &rep.OpenLoop); err != nil {
		return nil, err
	}
	if match("snapshot_roundtrip") {
		if err := snapRoundTrip(&rep.SnapRoundTrip); err != nil {
			return nil, err
		}
	}
	if match("warmstart_fork") {
		if err := warmstartFork(&rep.WarmstartFork); err != nil {
			return nil, err
		}
	}

	rep.SeedBaseline.NsPerEvent = 81.5
	rep.SeedBaseline.AllocsPerOp = 1
	if rep.Engine.ScheduleFire.NsPerEvent > 0 {
		rep.SpeedupVsSeed = rep.SeedBaseline.NsPerEvent / rep.Engine.ScheduleFire.NsPerEvent
	}
	return &rep, nil
}

// quickConfig is the end-to-end benchmark machine: CDNA transmit with
// quick measurement windows.
func quickConfig() bench.Config {
	cfg := bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx)
	cfg.Protection = core.ModeHypercall
	cfg.Warmup = bench.Quick().Warmup
	cfg.Duration = bench.Quick().Duration
	return cfg
}

// snapRoundTrip measures one Snapshot plus one Restore of a mid-window
// machine, median of five (the image bytes are identical across runs).
func snapRoundTrip(out *SnapRoundTrip) error {
	cfg := quickConfig()
	m, err := bench.Prepare(cfg)
	if err != nil {
		return err
	}
	m.Launch()
	m.RunTo(cfg.Warmup)
	m.OpenWindow()
	// Mid-window: in-flight frames, armed timers, half-filled histograms
	// — the state walk at its busiest.
	m.RunTo(cfg.Warmup + cfg.Duration/2)
	type trip struct{ snap, rest float64 }
	trips := make([]trip, timingRuns)
	totals := make([]float64, timingRuns)
	for i := range trips {
		start := time.Now()
		img, err := m.Snapshot()
		snapWall := time.Since(start).Seconds()
		if err != nil {
			return err
		}
		m2, err := bench.Prepare(cfg)
		if err != nil {
			return err
		}
		start = time.Now()
		if err := m2.Restore(img); err != nil {
			return err
		}
		trips[i] = trip{snap: snapWall, rest: time.Since(start).Seconds()}
		totals[i] = trips[i].snap + trips[i].rest
		out.Config = cfg.Name()
		out.Bytes = len(img)
	}
	mid, _ := medianIdx(totals)
	out.SnapshotSeconds, out.RestoreSeconds = trips[mid].snap, trips[mid].rest
	if s := out.SnapshotSeconds + out.RestoreSeconds; s > 0 {
		out.RoundTripsPerSec = 1 / s
	}
	return nil
}

// warmstartFork times a three-point fault grid cold and warm-forked;
// cold and forked walls are each the median of five.
func warmstartFork(out *WarmstartFork) error {
	base := quickConfig()
	cfgs := []bench.Config{base, base, base}
	cfgs[1].Fault = bench.FaultSpec{Kind: bench.FaultLinkFlap}
	cfgs[2].Fault = bench.FaultSpec{Kind: bench.FaultBlackout}
	colds := make([]float64, timingRuns)
	forkeds := make([]float64, timingRuns)
	for i := range colds {
		start := time.Now()
		for _, cfg := range cfgs {
			if _, err := bench.Run(cfg); err != nil {
				return err
			}
		}
		colds[i] = time.Since(start).Seconds()
		start = time.Now()
		outs, ws, err := bench.RunWarmForked(cfgs)
		if err != nil {
			return err
		}
		forkeds[i] = time.Since(start).Seconds()
		for _, o := range outs {
			if o.Err != nil {
				return o.Err
			}
		}
		out.Config = base.Name()
		out.Runs, out.Groups = ws.Runs, ws.Groups
		out.WarmupEvents, out.EventsSaved = ws.WarmupEvents, ws.EventsSaved
	}
	coldMid, _ := medianIdx(colds)
	forkedMid, _ := medianIdx(forkeds)
	out.ColdSeconds, out.ForkedSeconds = colds[coldMid], forkeds[forkedMid]
	if out.ForkedSeconds > 0 {
		out.Speedup = out.ColdSeconds / out.ForkedSeconds
	}
	return nil
}

func load(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// metric is one comparable ns/event figure extracted from a report.
// procs is nonzero only for rows whose timing depends on the measuring
// machine's core count (the sharded multi-host rows); compare() skips
// the regression gate on those when the two reports disagree. spread is
// the row's recorded measurement scatter (SpreadPct / WallSpreadPct),
// which widens the per-row regression gate.
type metric struct {
	name   string
	ns     float64
	allocs int64
	procs  int
	spread float64
}

func metrics(r *Report) []metric {
	e2eNs := 0.0
	if r.EndToEnd.EventsPerSec > 0 {
		e2eNs = 1e9 / r.EndToEnd.EventsPerSec
	}
	mhNs := 0.0
	if r.MultiHost.EventsPerSec > 0 {
		mhNs = 1e9 / r.MultiHost.EventsPerSec
	}
	snapNs := (r.SnapRoundTrip.SnapshotSeconds + r.SnapRoundTrip.RestoreSeconds) * 1e9
	forkNs := 0.0
	if r.WarmstartFork.Runs > 0 {
		forkNs = r.WarmstartFork.ForkedSeconds / float64(r.WarmstartFork.Runs) * 1e9
	}
	mh2Ns, mh4Ns := 0.0, 0.0
	if r.MultiHostShards2.EventsPerSec > 0 {
		mh2Ns = 1e9 / r.MultiHostShards2.EventsPerSec
	}
	if r.MultiHostShards4.EventsPerSec > 0 {
		mh4Ns = 1e9 / r.MultiHostShards4.EventsPerSec
	}
	flsNs, olNs := 0.0, 0.0
	if r.FabricLeafSpine.EventsPerSec > 0 {
		flsNs = 1e9 / r.FabricLeafSpine.EventsPerSec
	}
	if r.OpenLoop.EventsPerSec > 0 {
		olNs = 1e9 / r.OpenLoop.EventsPerSec
	}
	return []metric{
		{"engine.schedule_fire", r.Engine.ScheduleFire.NsPerEvent, r.Engine.ScheduleFire.AllocsPerOp, 0, r.Engine.ScheduleFire.SpreadPct},
		{"engine.schedule_fire_closure", r.Engine.ScheduleFireClosure.NsPerEvent, r.Engine.ScheduleFireClosure.AllocsPerOp, 0, r.Engine.ScheduleFireClosure.SpreadPct},
		{"engine.schedule_fire_depth64", r.Engine.ScheduleFireDepth64.NsPerEvent, r.Engine.ScheduleFireDepth64.AllocsPerOp, 0, r.Engine.ScheduleFireDepth64.SpreadPct},
		{"engine.timer_rearm", r.Engine.TimerRearm.NsPerEvent, r.Engine.TimerRearm.AllocsPerOp, 0, r.Engine.TimerRearm.SpreadPct},
		{"engine.cancel", r.Engine.Cancel.NsPerEvent, r.Engine.Cancel.AllocsPerOp, 0, r.Engine.Cancel.SpreadPct},
		{"engine.cancel_heavy", r.Engine.CancelHeavy.NsPerEvent, r.Engine.CancelHeavy.AllocsPerOp, 0, r.Engine.CancelHeavy.SpreadPct},
		{"engine.rto_churn", r.Engine.RTOChurn.NsPerEvent, r.Engine.RTOChurn.AllocsPerOp, 0, r.Engine.RTOChurn.SpreadPct},
		{"fabric.forward", r.Fabric.NsPerEvent, r.Fabric.AllocsPerOp, 0, r.Fabric.SpreadPct},
		{"end_to_end.ns_per_event", e2eNs, 0, 0, r.EndToEnd.WallSpreadPct},
		{"multi_host.ns_per_event", mhNs, 0, 0, r.MultiHost.WallSpreadPct},
		// Snapshot+restore round trip and per-run forked wall: absent
		// (zero) in pre-checkpoint artifacts, where they report as n/a.
		{"snapshot_roundtrip.ns", snapNs, 0, 0, 0},
		{"warmstart_fork.ns_per_run", forkNs, 0, 0, 0},
		// compare() walks the OLD report's metric list by index, so new
		// metrics must only ever be added at the end to stay comparable
		// with committed artifacts. The sharded rows carry the report's
		// GOMAXPROCS: their wall clock depends on how many shards actually
		// run in parallel, so cross-machine comparisons skip their gate.
		{"multi_host_shards2.ns_per_event", mh2Ns, 0, r.GOMAXPROCS, r.MultiHostShards2.WallSpreadPct},
		{"multi_host_shards4.ns_per_event", mh4Ns, 0, r.GOMAXPROCS, r.MultiHostShards4.WallSpreadPct},
		// Model-layer rows (added at the end per the rule above).
		{"model.nic_tx_pipeline", r.Model.NicTxPipeline.NsPerEvent, r.Model.NicTxPipeline.AllocsPerOp, 0, r.Model.NicTxPipeline.SpreadPct},
		{"model.guest_dma", r.Model.GuestDMA.NsPerEvent, r.Model.GuestDMA.AllocsPerOp, 0, r.Model.GuestDMA.SpreadPct},
		{"model.transport_segment", r.Model.TransportSegment.NsPerEvent, r.Model.TransportSegment.AllocsPerOp, 0, r.Model.TransportSegment.SpreadPct},
		{"model.frame_arena", r.Model.FrameArena.NsPerEvent, r.Model.FrameArena.AllocsPerOp, 0, r.Model.FrameArena.SpreadPct},
		// Multi-tier fabric and open-loop workload rows (this PR's
		// additions, at the end per the rule above).
		{"fabric_leafspine.ns_per_event", flsNs, 0, 0, r.FabricLeafSpine.WallSpreadPct},
		{"open_loop.ns_per_event", olNs, 0, 0, r.OpenLoop.WallSpreadPct},
	}
}

// spreadTolFactor scales a row's recorded measurement scatter into its
// regression gate: a row whose five windows spread S% apart can show a
// median-to-median delta of order S between two healthy runs, so the
// effective tolerance is max(tol, spreadTolFactor*S). The committed
// baseline's spread and the current run's both widen the gate — noise
// on either side of the comparison produces the same false regression.
const spreadTolFactor = 1.5

// effectiveTol is the per-row regression tolerance: the -tol floor,
// widened by the larger recorded spread of the two rows being compared.
func effectiveTol(tol float64, old, cur metric) float64 {
	s := old.spread
	if cur.spread > s {
		s = cur.spread
	}
	if w := spreadTolFactor * s; w > tol {
		return w
	}
	return tol
}

// compare prints per-metric deltas of cur vs old and reports whether
// any ns/event metric regressed by more than its per-row tolerance
// (the -tol floor widened by the row's recorded measurement spread —
// see effectiveTol), or any engine benchmark started allocating.
func compare(old, cur *Report, tol float64) (failed bool) {
	fmt.Printf("comparing against committed baseline (%s scheduler, %s):\n",
		old.Scheduler, old.GoVersion)
	fmt.Printf("  %-30s %12s %12s %9s\n", "metric", "old ns/ev", "new ns/ev", "delta")
	om, cm := metrics(old), metrics(cur)
	for i, o := range om {
		c := cm[i]
		// The alloc gate holds regardless of timing comparability.
		if c.allocs > o.allocs {
			fmt.Printf("  %-30s allocs/op %d -> %d  << REGRESSION\n", o.name, o.allocs, c.allocs)
			failed = true
		}
		switch {
		case o.ns <= 0:
			// Metric absent from an older artifact: reported, not gated.
			fmt.Printf("  %-30s %12.2f %12.2f %9s\n", o.name, o.ns, c.ns, "n/a")
		case c.ns <= 0:
			// The current run failed to measure a metric the baseline
			// has — a silently broken benchmark, not a speedup.
			fmt.Printf("  %-30s %12.2f %12.2f %9s  << MISSING\n", o.name, o.ns, c.ns, "n/a")
			failed = true
		case o.procs != 0 && c.procs != 0 && o.procs != c.procs:
			// Core-count-sensitive row measured on machines with different
			// parallelism: the delta is hardware, not a code regression.
			delta := (c.ns - o.ns) / o.ns * 100
			fmt.Printf("  %-30s %12.2f %12.2f %+8.1f%%  (skipped: %d vs %d cores)\n",
				o.name, o.ns, c.ns, delta, o.procs, c.procs)
		default:
			delta := (c.ns - o.ns) / o.ns * 100
			rowTol := effectiveTol(tol, o, c)
			mark := ""
			switch {
			case delta > rowTol:
				mark = "  << REGRESSION"
				failed = true
			case delta > tol:
				// Inside the spread-widened gate but over the floor: note
				// the widening so a quiet machine's run still reads clean.
				mark = fmt.Sprintf("  (within spread-widened gate %.0f%%)", rowTol)
			}
			fmt.Printf("  %-30s %12.2f %12.2f %+8.1f%%%s\n", o.name, o.ns, c.ns, delta, mark)
		}
	}
	if failed {
		fmt.Printf("FAIL: a metric regressed beyond its tolerance (floor %.0f%%, widened per row by recorded spread)\n", tol)
	} else {
		fmt.Printf("ok: all metrics within tolerance (floor %.0f%%, widened per row by recorded spread)\n", tol)
	}
	return failed
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cdnabench: %v\n", err)
	os.Exit(1)
}

func main() {
	testing.Init() // registers test.benchtime, which testing.Benchmark honours
	out := flag.String("out", "", "write JSON here (default stdout)")
	benchtime := flag.Duration("benchtime", time.Second, "per-micro-benchmark measurement time")
	short := flag.Bool("short", false, "quick measurement windows (CI bench-check)")
	refPath := flag.String("ref", "", "embed this report's rows as the reference block")
	comparePath := flag.String("compare", "", "diff against this BENCH_sim.json; exit 1 on regression")
	withPath := flag.String("with", "", "with -compare: diff this file instead of measuring")
	tol := flag.Float64("tol", 15, "regression tolerance on ns/event metrics, percent")
	runFilter := flag.String("run", "", "measure only rows whose name matches this regexp (skipped rows report zero); for local iteration, not -compare")
	flag.Parse()

	match := func(string) bool { return true }
	if *runFilter != "" {
		re, err := regexp.Compile(*runFilter)
		if err != nil {
			fatal(fmt.Errorf("-run: %w", err))
		}
		match = re.MatchString
	}

	bt := *benchtime
	if *short && bt > 250*time.Millisecond {
		bt = 250 * time.Millisecond
	}

	var rep *Report
	var err error
	if *withPath != "" {
		if *comparePath == "" {
			fatal(fmt.Errorf("-with requires -compare"))
		}
		if rep, err = load(*withPath); err != nil {
			fatal(err)
		}
	} else if rep, err = measure(bt, match); err != nil {
		fatal(err)
	}

	if *refPath != "" {
		other, err := load(*refPath)
		if err != nil {
			fatal(err)
		}
		rep.Reference = &Reference{Scheduler: other.Scheduler, Engine: other.Engine, Model: other.Model, Fabric: other.Fabric}
		rep.Reference.EndToEnd = other.EndToEnd
		rep.Reference.MultiHost = other.MultiHost
		rep.Reference.MultiHostShards2 = other.MultiHostShards2
		rep.Reference.MultiHostShards4 = other.MultiHostShards4
		rep.Reference.FabricLeafSpine = other.FabricLeafSpine
		rep.Reference.OpenLoop = other.OpenLoop
	}

	if *out != "" || *comparePath == "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if *out == "" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatal(err)
		} else {
			fmt.Printf("wrote %s (%s engine %.1f ns/event, %.0f events/s end-to-end, %.1fx vs seed)\n",
				*out, rep.Scheduler, rep.Engine.ScheduleFire.NsPerEvent,
				rep.EndToEnd.EventsPerSec, rep.SpeedupVsSeed)
		}
	}

	if *comparePath != "" {
		old, err := load(*comparePath)
		if err != nil {
			fatal(err)
		}
		if compare(old, rep, *tol) {
			os.Exit(1)
		}
	}
}
