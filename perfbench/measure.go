package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"cdna/internal/bench"
	"cdna/internal/campaign"
)

// passMode selects what a batch records besides host time.
type passMode int

const (
	// passPlain times the calls only: the end-to-end measurement.
	passPlain passMode = iota
	// passTraced also records a span around every call.
	passTraced
	// passAlloc also reads the heap's cumulative allocation around
	// Prepare and RunTo. It runs with one worker, so the reading
	// belongs to the experiment alone.
	passAlloc
)

// expStats is what the benchmark measured around one experiment's calls
// into the simulator's public API.
type expStats struct {
	start, end   time.Duration // job span, from the start of the batch
	prepare      time.Duration // bench.Prepare
	run          time.Duration // both Machine.RunTo calls
	collect      time.Duration // Machine.Collect
	depth        int           // Engine.Pending() when the window opens
	frames       uint64        // Fabric.InputsWindow()
	prepareAlloc uint64        // bytes allocated inside Prepare (passAlloc)
	runAlloc     uint64        // bytes allocated inside RunTo (passAlloc)
}

// Span is one traced call: a campaign job or one call into a layer.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Exp    int    `json:"exp"` // index of the experiment in the batch; -1 for the batch
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the start of the batch
	End    int64  `json:"end_ns"`
}

// Batch is one run of a workload's configurations through campaign.Run.
type Batch struct {
	Workers  int
	Wall     time.Duration
	Outs     []bench.Outcome
	Stats    []expStats
	PeakHeap uint64 // highest /gc/heap/live:bytes seen
	Spans    []Span // passTraced only
}

// runBatch drives cfgs through campaign.Run with an executor that runs
// the same lifecycle as bench.Run, timing each call from here.
func runBatch(cfgs []bench.Config, workers int, mode passMode) Batch {
	index := make(map[bench.Config]int, len(cfgs))
	for i, c := range cfgs {
		index[c] = i
	}
	b := Batch{Workers: workers, Stats: make([]expStats, len(cfgs))}
	rec := &recorder{mode: mode}
	runtime.GC()
	stop := sampleHeap(&b.PeakHeap)
	rec.t0 = time.Now()
	root := rec.newID()
	b.Outs = campaign.Run(cfgs, campaign.Options{
		Workers: workers,
		Exec: func(cfg bench.Config) bench.Outcome {
			i := index[cfg]
			return rec.runExp(cfg, i, root, &b.Stats[i])
		},
	})
	b.Wall = time.Since(rec.t0)
	stop()
	if mode == passTraced {
		rec.spans = append(rec.spans, Span{ID: root, Exp: -1, Name: "campaign.Run", End: int64(b.Wall)})
		b.Spans = rec.spans
	}
	return b
}

// recorder times calls and, in a traced pass, keeps their spans in
// memory until the batch ends.
type recorder struct {
	mode   passMode
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []Span
}

func (r *recorder) newID() int64 { return r.nextID.Add(1) }

// expRec is one experiment's view of the recorder: its spans are
// collected locally and handed over once the experiment ends.
type expRec struct {
	r      *recorder
	exp    int
	parent int64
	spans  []Span
	ms     runtime.MemStats
}

// call runs f and returns its host time and, in an alloc pass, the bytes
// it allocated.
func (e *expRec) call(name string, f func()) (time.Duration, uint64) {
	var before uint64
	if e.r.mode == passAlloc {
		runtime.ReadMemStats(&e.ms)
		before = e.ms.TotalAlloc
	}
	t := time.Now()
	f()
	d := time.Since(t)
	var alloc uint64
	if e.r.mode == passAlloc {
		runtime.ReadMemStats(&e.ms)
		alloc = e.ms.TotalAlloc - before
	}
	if e.r.mode == passTraced {
		start := int64(t.Sub(e.r.t0))
		e.spans = append(e.spans, Span{ID: e.r.newID(), Parent: e.parent, Exp: e.exp, Name: name, Start: start, End: start + int64(d)})
	}
	return d, alloc
}

// runExp runs one experiment through bench's exported lifecycle — the
// phases bench.Run composes — converting a panic into an error the way
// bench.RunCaptured does.
func (r *recorder) runExp(cfg bench.Config, exp int, root int64, st *expStats) (out bench.Outcome) {
	e := &expRec{r: r, exp: exp, parent: r.newID()}
	st.start = time.Since(r.t0)
	out.Config = cfg
	defer func() {
		if p := recover(); p != nil {
			out.Err = fmt.Errorf("perfbench: experiment %s panicked: %v", cfg.Name(), p)
		}
		st.end = time.Since(r.t0)
		if r.mode == passTraced {
			job := Span{ID: e.parent, Parent: root, Exp: exp, Name: "campaign.job", Start: int64(st.start), End: int64(st.end)}
			r.mu.Lock()
			r.spans = append(r.spans, job)
			r.spans = append(r.spans, e.spans...)
			r.mu.Unlock()
		}
	}()

	var m *bench.Machine
	var err error
	st.prepare, st.prepareAlloc = e.call("bench.Prepare", func() { m, err = bench.Prepare(cfg) })
	if err != nil {
		out.Err = err
		return out
	}
	c := m.Config()
	e.call("Machine.Launch", m.Launch)
	warm, warmAlloc := e.call("Machine.RunTo", func() { m.RunTo(c.Warmup) })
	e.call("Machine.OpenWindow", m.OpenWindow)
	st.depth = m.Eng.Pending()
	win, winAlloc := e.call("Machine.RunTo", func() { m.RunTo(c.Warmup + c.Duration) })
	st.run, st.runAlloc = warm+win, warmAlloc+winAlloc
	st.collect, _ = e.call("Machine.Collect", func() { out.Result = m.Collect() })
	if m.Fabric != nil {
		st.frames = m.Fabric.InputsWindow()
	}
	return out
}

// sampleHeap polls the live heap until the returned stop function is
// called, keeping the highest value in *peak. The live heap is updated
// at the end of every GC cycle.
func sampleHeap(peak *uint64) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > *peak {
				*peak = v
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// idleFrac is the share of the worker pool's capacity that no job used:
// 1 - Σ job wall / (workers × makespan).
func idleFrac(jobs []time.Duration, workers int, makespan time.Duration) float64 {
	if workers <= 0 || makespan <= 0 {
		return math.NaN()
	}
	var busy time.Duration
	for _, d := range jobs {
		busy += d
	}
	return 1 - busy.Seconds()/(float64(workers)*makespan.Seconds())
}
