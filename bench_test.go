package cdna

// One benchmark per table and figure of the paper's evaluation (§5),
// plus the ablations. Each iteration assembles the machine, runs warmup
// and a measurement window, and reports throughput (and the headline
// profile numbers) as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every result in miniature. cmd/cdnatables runs the same
// experiments at full length.

import (
	"testing"

	"cdna/internal/bench"
	"cdna/internal/core"
	"cdna/internal/sim/simbench"
)

// tableOpts picks the measurement windows for the full-system
// benchmarks: full-length windows by default, bench.Quick() under
// `go test -short` so CI benchmark smoke runs finish in seconds.
func tableOpts() bench.Opts {
	if testing.Short() {
		return bench.Quick()
	}
	return bench.Full()
}

func reportRow(b *testing.B, name string, r bench.Result) {
	b.ReportMetric(r.Mbps, name+":Mb/s")
}

func BenchmarkTable1NativeVsXen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := bench.Table1(tableOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results[0].Mbps, "native-tx:Mb/s")
		b.ReportMetric(results[1].Mbps, "xen-tx:Mb/s")
		b.ReportMetric(results[2].Mbps, "native-rx:Mb/s")
		b.ReportMetric(results[3].Mbps, "xen-rx:Mb/s")
	}
}

func BenchmarkTable2Transmit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := bench.Table2(tableOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results[0].Mbps, "xen-intel:Mb/s")
		b.ReportMetric(results[1].Mbps, "xen-ricenic:Mb/s")
		b.ReportMetric(results[2].Mbps, "cdna:Mb/s")
		b.ReportMetric(100*results[2].Profile.Idle, "cdna-idle:%")
	}
}

func BenchmarkTable3Receive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := bench.Table3(tableOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results[0].Mbps, "xen-intel:Mb/s")
		b.ReportMetric(results[1].Mbps, "xen-ricenic:Mb/s")
		b.ReportMetric(results[2].Mbps, "cdna:Mb/s")
		b.ReportMetric(100*results[2].Profile.Idle, "cdna-idle:%")
	}
}

func BenchmarkTable4Protection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := bench.Table4(tableOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*results[0].Profile.Hyp, "tx-prot-on-hyp:%")
		b.ReportMetric(100*results[1].Profile.Hyp, "tx-prot-off-hyp:%")
		b.ReportMetric(100*(results[1].Profile.Idle-results[0].Profile.Idle), "tx-idle-gain:%")
	}
}

// figureBench runs a reduced guest sweep (the full 8-point sweep lives
// in cmd/cdnatables).
func figureBench(b *testing.B, fig func(bench.Opts, []int) (t any, pts []bench.FigurePoint, err error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		_, pts, err := fig(tableOpts(), []int{1, 8, 24})
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(last.Xen.Mbps, "xen-24g:Mb/s")
		b.ReportMetric(last.CDNA.Mbps, "cdna-24g:Mb/s")
		b.ReportMetric(last.CDNA.Mbps/last.Xen.Mbps, "cdna/xen-24g:x")
	}
}

func BenchmarkFigure3TransmitScaling(b *testing.B) {
	figureBench(b, func(o bench.Opts, g []int) (any, []bench.FigurePoint, error) {
		t, pts, err := bench.Figure3(o, g)
		return t, pts, err
	})
}

func BenchmarkFigure4ReceiveScaling(b *testing.B) {
	figureBench(b, func(o bench.Opts, g []int) (any, []bench.FigurePoint, error) {
		t, pts, err := bench.Figure4(o, g)
		return t, pts, err
	})
}

func BenchmarkAblationInterrupts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := bench.AblationInterrupts(tableOpts(), 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results[0].PhysIRQPerSec, "bitvec-irq/s")
		b.ReportMetric(results[1].PhysIRQPerSec, "percontext-irq/s")
	}
}

func BenchmarkAblationBatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := bench.AblationBatching(tableOpts(), []int{1, 8, 0})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*results[0].Profile.Hyp, "batch1-hyp:%")
		b.ReportMetric(100*results[len(results)-1].Profile.Hyp, "unlimited-hyp:%")
	}
}

func BenchmarkAblationIOMMU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := bench.AblationIOMMU(tableOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*results[0].Profile.Hyp, "hypercall-hyp:%")
		b.ReportMetric(100*results[1].Profile.Hyp, "iommu-hyp:%")
	}
}

// BenchmarkSingleRun measures the simulator itself: events per wall
// second for the standard CDNA transmit configuration — the end-to-end
// companion to the internal/sim micro-benchmarks in BENCH_sim.json.
func BenchmarkSingleRun(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx)
		cfg.Protection = core.ModeHypercall
		cfg.Warmup = bench.Quick().Warmup
		cfg.Duration = bench.Quick().Duration
		res, err := bench.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkPrepareCDNA24 measures machine assembly alone for the
// largest configuration of Figure 3: 24 CDNA guests on two NICs, whose
// buffer pools put ~147k pages in the page table. Its B/op is the
// quantity TestPrepareAllocBudget gates.
func BenchmarkPrepareCDNA24(b *testing.B) {
	b.ReportAllocs()
	cfg := bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx)
	cfg.Guests = 24
	cfg.ConnsPerGuestPerNIC = bench.BalancedConns(cfg.Guests)
	for i := 0; i < b.N; i++ {
		if _, err := bench.Prepare(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScheduleFire is the foundation-layer hot loop measured
// at the repository root so `go test -bench .` covers both altitudes;
// the body is shared with internal/sim and cmd/cdnabench via
// internal/sim/simbench.
func BenchmarkEngineScheduleFire(b *testing.B) { simbench.ScheduleFire(b) }
