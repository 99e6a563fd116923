package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"cdna/internal/bench"
	"cdna/internal/sim"
)

func TestModuleOf(t *testing.T) {
	for file, want := range map[string]string{
		"cdna@v0.0.0/internal/sim/engine.go":        "sim",
		"cdna@v0.0.0/internal/sim/sched.go":         "sim.sched",
		"cdna@v0.0.0/internal/sim/sched_hybrid.go":  "sim.sched",
		"cdna@v0.0.0/internal/sim/fifo.go":          "sim.fifo",
		"cdna@v0.0.0/internal/sim/drain.go":         "sim.fifo",
		"cdna/internal/topo/fabric.go":              "topo",
		"cdna@v0.0.0/internal/nic/engine.go":        "nic",
		"cdna@v0.0.0/internal/ricenic/ricenic.go":   "ricenic",
		"cdna@v0.0.0/internal/campaign/campaign.go": "campaign",
		"cdna@v0.0.0/internal/snap/snap.go":         "other",
		"cdna@v0.0.0/cmd/cdnasim/main.go":           "other",
		"cdna/perfbench/measure.go":                 "other",
		"runtime/mgcmark.go":                        "runtime",
		"runtime/memclr_amd64.s":                    "runtime",
		"internal/runtime/maps/runtime_fast64.go":   "runtime",
		"sort/zsortfunc.go":                         "other",
		"internal/bytealg/indexbyte_amd64.s":        "other",
	} {
		if got := moduleOf(file); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", file, got, want)
		}
	}
}

// topFiles is `go tool pprof -top -files` output in the form the
// installed toolchain prints it.
const topFiles = `File: perfbench
Type: cpu
Duration: 1.11s, Total samples = 1s (90.00%)
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     300ms 30.00% 30.00%      310ms 31.00%  cdna@v0.0.0/internal/sim/sched_hybrid.go
     200ms 20.00% 50.00%      200ms 20.00%  cdna@v0.0.0/internal/sim/fifo.go (inline)
     150ms 15.00% 65.00%      900ms 90.00%  cdna@v0.0.0/internal/sim/engine.go
     100ms 10.00% 75.00%      100ms 10.00%  runtime/mgcmark.go
     100ms 10.00% 85.00%      150ms 15.00%  cdna@v0.0.0/internal/topo/topo.go
      50ms  5.00% 90.00%       50ms  5.00%  cdna@v0.0.0/internal/sim/sched_hybrid.go (inline)
      50ms  5.00% 95.00%       50ms  5.00%  sort/zsortfunc.go
      50ms  5.00%   100%       50ms  5.00%  cdna@v0.0.0/internal/topo/topo.go
         0     0%   100%      1.50s   150%  cdna@v0.0.0/internal/campaign/campaign.go
`

func TestParseTopFilesBucketsAndReconciles(t *testing.T) {
	s, err := parseTopFiles(topFiles)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim.sched": 35, "sim.fifo": 20, "sim": 15, "runtime": 10, "topo": 15, "other": 5}
	var sum float64
	for _, m := range modules {
		if got := s.Share[m]; math.Abs(got-want[m]) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", m, got, want[m])
		}
		sum += s.Share[m]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	if s.Total != time.Second {
		t.Errorf("total = %v, want 1s", s.Total)
	}
}

func TestParseTopFilesRejectsUnattributedSamples(t *testing.T) {
	// Drop a 300ms row: the rows no longer add up to the reported total.
	lines := strings.Split(topFiles, "\n")
	var kept []string
	for _, l := range lines {
		if !strings.Contains(l, "300ms") {
			kept = append(kept, l)
		}
	}
	if _, err := parseTopFiles(strings.Join(kept, "\n")); err == nil {
		t.Error("rows summing to 700ms of a 1s total were accepted")
	}
	if _, err := parseTopFiles("no profile here\n"); err == nil {
		t.Error("output without samples was accepted")
	}
}

func TestIdleFrac(t *testing.T) {
	s := time.Second
	// Two workers for 10s offer 20 worker-seconds; jobs use 15.
	if got := idleFrac([]time.Duration{4 * s, 6 * s, 5 * s}, 2, 10*s); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("idle = %v, want 0.25", got)
	}
	// One job on a two-worker pool leaves one worker idle throughout.
	if got := idleFrac([]time.Duration{10 * s}, 2, 10*s); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("idle = %v, want 0.5", got)
	}
	if got := idleFrac(nil, 0, 10*s); !math.IsNaN(got) {
		t.Errorf("idle with no workers = %v, want NaN", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// tiny is a CDNA transmit experiment short enough for a unit test.
func tiny() bench.Config {
	cfg := bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx)
	cfg.Warmup = 2 * sim.Millisecond
	cfg.Duration = 5 * sim.Millisecond
	return cfg
}

// TestInstrumentedRunMatchesBenchRun checks that timing the lifecycle
// from here leaves the result byte-identical to bench.Run's, in every
// pass mode.
func TestInstrumentedRunMatchesBenchRun(t *testing.T) {
	want, err := digest(bench.RunCaptured(tiny()))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []passMode{passPlain, passTraced, passAlloc} {
		b := runBatch([]bench.Config{tiny()}, 1, mode)
		got, err := digest(b.Outs[0])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("mode %d: instrumented result differs from bench.Run", mode)
		}
		st := b.Stats[0]
		if st.prepare <= 0 || st.run <= 0 || st.end <= st.start {
			t.Errorf("mode %d: missing timings %+v", mode, st)
		}
		if mode == passAlloc && (st.prepareAlloc == 0 || st.runAlloc == 0) {
			t.Errorf("alloc pass read no allocation: %+v", st)
		}
		if mode == passTraced {
			names := make(map[string]int)
			for _, sp := range b.Spans {
				names[sp.Name]++
			}
			for name, n := range map[string]int{"campaign.Run": 1, "campaign.job": 1, "bench.Prepare": 1,
				"Machine.Launch": 1, "Machine.RunTo": 2, "Machine.OpenWindow": 1, "Machine.Collect": 1} {
				if names[name] != n {
					t.Errorf("%d %s spans, want %d", names[name], name, n)
				}
			}
		}
	}
}

// TestTracedBatchSpans runs a traced batch on two workers and checks the
// span tree: one campaign.Run root, a job per experiment under it, and
// the six calls of each experiment under its job.
func TestTracedBatchSpans(t *testing.T) {
	rx := tiny()
	rx.Dir = bench.Rx
	b := runBatch([]bench.Config{tiny(), rx}, 2, passTraced)
	byID := make(map[int64]Span)
	for _, sp := range b.Spans {
		byID[sp.ID] = sp
	}
	if len(byID) != len(b.Spans) || len(b.Spans) != 1+2*7 {
		t.Fatalf("%d spans (%d distinct ids), want %d", len(b.Spans), len(byID), 1+2*7)
	}
	for _, sp := range b.Spans {
		if sp.End < sp.Start {
			t.Errorf("span %+v ends before it starts", sp)
		}
		switch sp.Name {
		case "campaign.Run":
			if sp.Parent != 0 || sp.Exp != -1 {
				t.Errorf("root span %+v", sp)
			}
		case "campaign.job":
			if byID[sp.Parent].Name != "campaign.Run" {
				t.Errorf("job span %+v is not under the root", sp)
			}
		default:
			if p := byID[sp.Parent]; p.Name != "campaign.job" || p.Exp != sp.Exp {
				t.Errorf("call span %+v is not under its experiment's job", sp)
			}
		}
	}
}

func TestPerturbedResultCountsAsFailed(t *testing.T) {
	out := bench.RunCaptured(tiny())
	d, err := digest(out)
	if err != nil {
		t.Fatal(err)
	}
	recorded := func() *checker {
		return &checker{want: map[string]string{out.Config.Name(): d}, first: map[string]string{}}
	}
	c := recorded()
	c.check([]bench.Outcome{out, out})
	if c.attempted != 2 || c.failed != 0 {
		t.Fatalf("clean outcome: %d of %d failed (%v)", c.failed, c.attempted, c.reasons)
	}

	perturb := map[string]func(o *bench.Outcome){
		"throughput":  func(o *bench.Outcome) { o.Result.Mbps += 1e-9 },
		"non-finite":  func(o *bench.Outcome) { o.Result.LatencyP90us = math.Inf(1) },
		"NaN":         func(o *bench.Outcome) { o.Result.Fairness = math.NaN() },
		"CDNA faults": func(o *bench.Outcome) { o.Result.Faults = 1 },
		"error":       func(o *bench.Outcome) { o.Err = errTest },
	}
	for name, f := range perturb {
		bad := out
		f(&bad)
		c := recorded()
		c.check([]bench.Outcome{bad})
		if c.failed != 1 {
			t.Errorf("%s: perturbed result passed the check at the recorded seed", name)
		}
	}

	// Away from the recorded seed there is no stored digest, but a
	// result that changes between batches of one run still fails, and
	// so do non-finite values and protection faults.
	c = &checker{first: map[string]string{}}
	bad := out
	bad.Result.Events++
	c.check([]bench.Outcome{out})
	c.check([]bench.Outcome{bad})
	if c.attempted != 2 || c.failed != 1 {
		t.Errorf("changed result across batches: %d of %d failed, want 1 of 2", c.failed, c.attempted)
	}
	for _, name := range []string{"non-finite", "CDNA faults"} {
		bad := out
		perturb[name](&bad)
		c := &checker{first: map[string]string{}}
		c.check([]bench.Outcome{bad})
		if c.failed != 1 {
			t.Errorf("%s: perturbed result passed the check away from the recorded seed", name)
		}
	}
}

var errTest = errors.New("test error")

func TestPaperFidelity(t *testing.T) {
	// Build results that reproduce every datum exactly.
	byPoint := make(map[point]*bench.Result)
	var outs []bench.Outcome
	res := func(p point) *bench.Result {
		if r, ok := byPoint[p]; ok {
			return r
		}
		r := &bench.Result{Config: bench.Config{Mode: p.mode, NIC: p.nic, Guests: p.guests, NICs: p.nics, Dir: p.dir, Protection: p.prot}}
		byPoint[p] = r
		return r
	}
	for _, d := range paperData {
		r := res(d.num)
		v := d.Paper
		if d.den != nil {
			res(*d.den).Mbps = 1000
			v *= 1000
		}
		switch {
		case strings.HasSuffix(d.Name, "Mb/s") || d.den != nil:
			r.Mbps = v
		case strings.HasSuffix(d.Name, "idle %"):
			r.Profile.Idle = v / 100
		case strings.HasSuffix(d.Name, "hyp %"):
			r.Profile.Hyp = v / 100
		case strings.HasSuffix(d.Name, "guest intr/s"):
			r.GuestIntrPerSec = v
		case strings.HasSuffix(d.Name, "driver intr/s"):
			r.DriverIntrPerSec = v
		case strings.HasSuffix(d.Name, "driver domain %"):
			r.Profile.DriverOS = v / 100
		case strings.HasSuffix(d.Name, "guest OS %"):
			r.Profile.GuestOS = v / 100
		default:
			t.Fatalf("no setter for %q", d.Name)
		}
	}
	for _, r := range byPoint {
		outs = append(outs, bench.Outcome{Config: r.Config, Result: *r})
	}
	fs, err := paperFidelity(outs)
	if err != nil {
		t.Fatal(err)
	}
	if got := paperErrPct(fs); got > 1e-9 {
		t.Errorf("exact reproduction: paper_err_pct = %v, want 0", got)
	}
	// Native transmit 10% high moves the mean over 20 data by 0.5 points.
	for i := range outs {
		if p, _ := pointOf(outs[i].Config); p == nativeTx {
			outs[i].Result.Mbps *= 1.1
		}
	}
	fs, err = paperFidelity(outs)
	if err != nil {
		t.Fatal(err)
	}
	if got := paperErrPct(fs); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("one datum 10%% off: paper_err_pct = %v, want 0.5", got)
	}
}

func TestPaperWorkloadHasEveryDatum(t *testing.T) {
	have := make(map[point]bool)
	for _, c := range paperConfigs(1) {
		if p, ok := pointOf(c); ok {
			have[p] = true
		}
	}
	for _, d := range paperData {
		if !have[d.num] || (d.den != nil && !have[*d.den]) {
			t.Errorf("%s: the paper workload does not run its experiment", d.Name)
		}
	}
}

func TestWorkloadsFollowTheSeed(t *testing.T) {
	for _, tc := range []struct {
		w Workload
		n int
	}{{workloads[0], 51}, {workloads[1], 64}, {workloads[2], 1}} {
		a, b, c := tc.w.Configs(1), tc.w.Configs(1), tc.w.Configs(2)
		if len(a) != tc.n {
			t.Errorf("%s: %d experiments, want %d", tc.w.Name, len(a), tc.n)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: configs differ for the same seed", tc.w.Name)
			}
			if a[i] == c[i] {
				t.Errorf("%s: config %s ignores the seed", tc.w.Name, a[i].Name())
			}
		}
	}
}
