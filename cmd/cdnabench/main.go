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
	"io"
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

	// GOMAXPROCS records the core count of the measuring machine.
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

// metric is one comparable ns/event figure extracted from a report,
// identified by name. spread is the row's recorded measurement scatter
// (SpreadPct / WallSpreadPct), which widens the per-row regression
// gate.
type metric struct {
	name   string
	ns     float64
	allocs int64
	spread float64
}

// perEvent converts an events/sec figure to ns/event (0 when absent).
func perEvent(eventsPerSec float64) float64 {
	if eventsPerSec <= 0 {
		return 0
	}
	return 1e9 / eventsPerSec
}

func metrics(r *Report) []metric {
	micro := func(name string, row Row) metric {
		return metric{name, row.NsPerEvent, row.AllocsPerOp, row.SpreadPct}
	}
	wall := func(name string, e EndToEnd) metric {
		return metric{name, perEvent(e.EventsPerSec), 0, e.WallSpreadPct}
	}
	forkNs := 0.0
	if r.WarmstartFork.Runs > 0 {
		forkNs = r.WarmstartFork.ForkedSeconds / float64(r.WarmstartFork.Runs) * 1e9
	}
	return []metric{
		micro("engine.schedule_fire", r.Engine.ScheduleFire),
		micro("engine.schedule_fire_closure", r.Engine.ScheduleFireClosure),
		micro("engine.schedule_fire_depth64", r.Engine.ScheduleFireDepth64),
		micro("engine.timer_rearm", r.Engine.TimerRearm),
		micro("engine.cancel", r.Engine.Cancel),
		micro("engine.cancel_heavy", r.Engine.CancelHeavy),
		micro("engine.rto_churn", r.Engine.RTOChurn),
		micro("fabric.forward", r.Fabric),
		micro("model.nic_tx_pipeline", r.Model.NicTxPipeline),
		micro("model.guest_dma", r.Model.GuestDMA),
		micro("model.transport_segment", r.Model.TransportSegment),
		micro("model.frame_arena", r.Model.FrameArena),
		wall("end_to_end.ns_per_event", r.EndToEnd),
		wall("multi_host.ns_per_event", r.MultiHost),
		wall("fabric_leafspine.ns_per_event", r.FabricLeafSpine),
		wall("open_loop.ns_per_event", r.OpenLoop),
		{"snapshot_roundtrip.ns", (r.SnapRoundTrip.SnapshotSeconds + r.SnapRoundTrip.RestoreSeconds) * 1e9, 0, 0},
		{"warmstart_fork.ns_per_run", forkNs, 0, 0},
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
// any metric regressed (see compareMetrics).
func compare(old, cur *Report, tol float64) (failed bool) {
	fmt.Printf("comparing against committed baseline (%s scheduler, %s):\n",
		old.Scheduler, old.GoVersion)
	return compareMetrics(os.Stdout, metrics(old), metrics(cur), tol)
}

// compareMetrics matches rows by name and reports whether any ns/event
// metric regressed by more than its per-row tolerance (the -tol floor
// widened by the row's recorded measurement spread — see effectiveTol),
// or any benchmark started allocating. A row that only one side has —
// missing from the list, or measured as zero in the baseline — prints
// n/a and is not gated; a row the baseline has but the current run
// measured as zero is a silently broken benchmark and fails as MISSING.
func compareMetrics(w io.Writer, om, cm []metric, tol float64) (failed bool) {
	fmt.Fprintf(w, "  %-30s %12s %12s %9s\n", "metric", "old ns/ev", "new ns/ev", "delta")
	cur := make(map[string]metric, len(cm))
	for _, c := range cm {
		cur[c.name] = c
	}
	seen := make(map[string]bool, len(om))
	for _, o := range om {
		seen[o.name] = true
		c, ok := cur[o.name]
		if !ok {
			fmt.Fprintf(w, "  %-30s %12.2f %12s %9s\n", o.name, o.ns, "-", "n/a")
			continue
		}
		if c.allocs > o.allocs {
			fmt.Fprintf(w, "  %-30s allocs/op %d -> %d  << REGRESSION\n", o.name, o.allocs, c.allocs)
			failed = true
		}
		switch {
		case o.ns <= 0:
			fmt.Fprintf(w, "  %-30s %12.2f %12.2f %9s\n", o.name, o.ns, c.ns, "n/a")
		case c.ns <= 0:
			fmt.Fprintf(w, "  %-30s %12.2f %12.2f %9s  << MISSING\n", o.name, o.ns, c.ns, "n/a")
			failed = true
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
			fmt.Fprintf(w, "  %-30s %12.2f %12.2f %+8.1f%%%s\n", o.name, o.ns, c.ns, delta, mark)
		}
	}
	for _, c := range cm {
		if !seen[c.name] {
			fmt.Fprintf(w, "  %-30s %12s %12.2f %9s\n", c.name, "-", c.ns, "n/a")
		}
	}
	if failed {
		fmt.Fprintf(w, "FAIL: a metric regressed beyond its tolerance (floor %.0f%%, widened per row by recorded spread)\n", tol)
	} else {
		fmt.Fprintf(w, "ok: all metrics within tolerance (floor %.0f%%, widened per row by recorded spread)\n", tol)
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
