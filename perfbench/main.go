// Command perfbench is the repository benchmark. It runs one named
// workload — a closed batch of bench.Configs driven through
// campaign.Run with one worker per core — and prints every metric with
// its unit, the JSON result object last. README.md describes the
// workloads, the metrics and what each layer metric should move.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 40 --trace 0
//
// --trace 0 repeats the batch for --seconds and reports the median
// end-to-end metrics. --trace 1 runs the batch on one worker reading
// heap allocation, twice untraced and twice with spans and a CPU
// profile, then the layer probes, and reports the per-layer metrics.
// --record stores the digests of one batch at --seed in
// perfbench/digests, which later runs at that seed must match.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"cdna/internal/bench"
)

// minReps is the fewest batches an end-to-end run measures, however
// short --seconds is.
const minReps = 3

func main() {
	testing.Init() // registers test.benchtime, which the layer probes use
	name := flag.String("workload", "", "workload: paper | openloop | rack16")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 40, "how long an end-to-end run measures")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	outdir := flag.String("outdir", filepath.Join(".bench_build", "trace"), "where a traced run writes its spans and CPU profile")
	record := flag.Bool("record", false, "store the digests of one batch at --seed in perfbench/digests")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *outdir, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, outdir string, record bool) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if record {
		b := runBatch(w.Configs(seed), runtime.GOMAXPROCS(0), passPlain)
		return writeDigests(w.Name, seed, b.Outs)
	}
	chk, err := newChecker(w.Name, seed)
	if err != nil {
		return err
	}
	var rep report
	switch trace {
	case 0:
		rep, err = endToEnd(w, seed, seconds, chk)
	case 1:
		rep, err = perLayer(w, seed, outdir, chk)
	default:
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if err != nil {
		return err
	}
	return rep.print(os.Stdout, chk)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in the order they are printed.
type report struct {
	names   []string
	metrics map[string]metric
	notes   []string // summary lines printed before the metrics
}

func (r *report) add(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable summary, then the result object as
// the last line.
func (r *report) print(f io.Writer, chk *checker) error {
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(f, "%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "%-36s %14.6g %s (%d of %d experiment runs)\n", "failed_frac",
		float64(chk.failed)/float64(max(chk.attempted, 1)), "1", chk.failed, chk.attempted)
	for _, reason := range chk.reasons {
		fmt.Fprintln(f, "failed:", reason)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{chk.failed == 0 && chk.attempted > 0, chk.attempted, chk.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintln(f, string(b))
	return err
}

// endToEnd repeats the batch for the given seconds (at least minReps
// times) and reports the medians.
func endToEnd(w Workload, seed uint64, seconds float64, chk *checker) (report, error) {
	var rep report
	cfgs := w.Configs(seed)
	workers := runtime.GOMAXPROCS(0)
	var walls, setups, heaps []float64
	start := time.Now()
	for {
		b := runBatch(cfgs, workers, passPlain)
		chk.check(b.Outs)
		var setup time.Duration
		for _, st := range b.Stats {
			setup += st.prepare
		}
		walls = append(walls, b.Wall.Seconds())
		setups = append(setups, setup.Seconds())
		heaps = append(heaps, float64(b.PeakHeap)/1e6)
		if len(walls) == 1 && w.Name == "paper" {
			notePaperFidelity(&rep, b.Outs)
		}
		if len(walls) >= minReps && time.Since(start).Seconds()+median(walls) > seconds {
			break
		}
	}
	rep.note("workload %s, seed %d: %d batches of %d experiments on %d workers; wall_s per batch %s",
		w.Name, seed, len(walls), len(cfgs), workers, fmtList(walls))
	rep.add("wall_s", median(walls), "s")
	rep.add("setup_s", median(setups), "s")
	rep.add("peak_heap_mb", median(heaps), "MB")
	return rep, nil
}

// notePaperFidelity adds each paper datum and paper_err_pct to the
// summary. A failed experiment leaves its data out; the check counts it.
func notePaperFidelity(rep *report, outs []bench.Outcome) {
	fs, err := paperFidelity(outs)
	if err != nil {
		rep.note("paper_err_pct unavailable: %v", err)
		return
	}
	for _, f := range fs {
		rep.note("paper %-30s %-8s paper %8.1f  reproduced %8.1f  error %5.1f%%", f.Name, f.Source, f.Paper, f.Got, 100*f.RelErr)
	}
	rep.note("paper_err_pct %.4g %% (mean over %d data)", paperErrPct(fs), len(fs))
}

// perLayer runs the batch on one worker reading heap allocation, then
// untraced and traced on the full pool in the order untraced, traced,
// traced, untraced — so a drift in machine speed or a process still
// warming up does not read as tracing overhead — then the layer probes,
// and reports the per-layer metrics. Times are means over the two
// traced batches.
func perLayer(w Workload, seed uint64, outdir string, chk *checker) (report, error) {
	var rep report
	cfgs := w.Configs(seed)
	workers := runtime.GOMAXPROCS(0)
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return rep, err
	}
	stem := filepath.Join(outdir, fmt.Sprintf("%s-seed%d", w.Name, seed))

	alloc := runBatch(cfgs, 1, passAlloc)
	chk.check(alloc.Outs)
	var plain, traced [2]Batch
	var profiles [2]string
	plain[0] = runBatch(cfgs, workers, passPlain)
	for i := range traced {
		profiles[i] = fmt.Sprintf("%s.%d.cpu.pprof", stem, i+1)
		var err error
		traced[i], err = profiled(profiles[i], func() Batch { return runBatch(cfgs, workers, passTraced) })
		if err != nil {
			return rep, err
		}
		if err := writeSpans(fmt.Sprintf("%s.%d.spans.json", stem, i+1), traced[i].Spans); err != nil {
			return rep, err
		}
	}
	plain[1] = runBatch(cfgs, workers, passPlain)
	for _, b := range [][]bench.Outcome{plain[0].Outs, traced[0].Outs, traced[1].Outs, plain[1].Outs} {
		chk.check(b)
	}
	shares, err := profileShares(profiles[:]...)
	if err != nil {
		return rep, err
	}

	var lt layerTimes
	for _, b := range traced {
		lt.add(b, 0.5)
	}
	var events, arrivals, completions, frames, drops, prepAlloc, runAlloc uint64
	var depth float64
	for i, st := range traced[0].Stats {
		res := traced[0].Outs[i].Result
		dur := res.Config.Duration.Seconds()
		events += res.Events
		arrivals += uint64(math.Round(res.ArrivalsPerSec * dur))
		completions += uint64(math.Round(res.FlowsPerSec * dur))
		drops += res.FabricDrops
		frames += st.frames
		depth += float64(st.depth) / float64(len(cfgs))
		prepAlloc += alloc.Stats[i].prepareAlloc
		runAlloc += alloc.Stats[i].runAlloc
	}
	rep.add("bench.prepare_s", lt.prepare, "s")
	rep.add("bench.prepare_alloc_mb", float64(prepAlloc)/1e6, "MB")
	rep.add("sim.events", float64(events), "count")
	rep.add("sim.queue_depth", depth, "count")
	rep.add("sim.run_s", lt.run, "s")
	rep.add("sim.ns_per_event", lt.run*1e9/float64(max(events, 1)), "ns")
	rep.add("sim.run_alloc_bytes_per_event", float64(runAlloc)/float64(max(events, 1)), "B")
	rep.add("stats.collect_s", lt.collect, "s")
	rep.add("workload.arrivals", float64(arrivals), "count")
	rep.add("workload.completions", float64(completions), "count")
	rep.add("topo.frames", float64(frames), "count")
	rep.add("topo.drops", float64(drops), "count")
	rep.add("campaign.idle_frac", lt.idle, "frac")
	rep.add("campaign.exp_max_s", lt.maxJob, "s")
	var sum float64
	for _, m := range modules {
		rep.add(m+".cpu_share", shares.Share[m], "%")
		sum += shares.Share[m]
	}
	tracedWall := (traced[0].Wall + traced[1].Wall).Seconds() / 2
	plainWall := (plain[0].Wall + plain[1].Wall).Seconds() / 2
	rep.add("trace.overhead_s", tracedWall-plainWall, "s")

	if err := flag.Set("test.benchtime", "50ms"); err != nil {
		return rep, err
	}
	for _, p := range layerProbes {
		r := runProbe(p)
		rep.add(p.Name+"_ns", r.NsPerOp, "ns")
		rep.add(p.Name+"_allocs", float64(r.AllocsPerOp), "allocs/op")
	}

	rep.note("workload %s, seed %d: %d experiments; wall_s untraced %.4g %.4g, traced %.4g %.4g, one worker %.4g",
		w.Name, seed, len(cfgs), plain[0].Wall.Seconds(), plain[1].Wall.Seconds(),
		traced[0].Wall.Seconds(), traced[1].Wall.Seconds(), alloc.Wall.Seconds())
	rep.note("cpu profile %v sampled; module shares sum to %.2f%%; spans and profiles in %s.*", shares.Total, sum, stem)
	return rep, nil
}

// layerTimes accumulates the timed layers of traced batches, each
// weighted, in seconds.
type layerTimes struct {
	prepare, run, collect, maxJob, idle float64
}

func (lt *layerTimes) add(b Batch, weight float64) {
	var jobs []time.Duration
	var maxJob time.Duration
	for _, st := range b.Stats {
		lt.prepare += weight * st.prepare.Seconds()
		lt.run += weight * st.run.Seconds()
		lt.collect += weight * st.collect.Seconds()
		jobs = append(jobs, st.end-st.start)
		maxJob = max(maxJob, st.end-st.start)
	}
	lt.maxJob += weight * maxJob.Seconds()
	lt.idle += weight * idleFrac(jobs, b.Workers, b.Wall)
}

// profiled runs f under the CPU profiler, writing the profile to path.
func profiled(path string, f func() Batch) (Batch, error) {
	out, err := os.Create(path)
	if err != nil {
		return Batch{}, err
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return Batch{}, err
	}
	b := f()
	pprof.StopCPUProfile()
	return b, out.Close()
}

// writeSpans writes the traced pass's spans, ordered by start time.
func writeSpans(path string, spans []Span) error {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// median returns the middle value (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
