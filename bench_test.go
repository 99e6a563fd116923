package cdna

// One benchmark per table and figure of the paper's evaluation (§5),
// plus the ablations. Each iteration assembles the machine, runs warmup
// and a measurement window, and reports throughput (and the headline
// profile numbers) as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every result in miniature. The experiments are the rows
// of the named sets cmd/cdnatables prints (internal/campaign).

import (
	"strings"
	"testing"

	"cdna/internal/bench"
	"cdna/internal/campaign"
	"cdna/internal/core"
	"cdna/internal/sim/simbench"
)

// rows runs the rows of a set's table (matched by title prefix) that
// keep accepts, one experiment at a time: full-length windows by
// default, bench.Quick() under `go test -short` so CI benchmark smoke
// runs finish in seconds.
func rows(b *testing.B, set, title string, keep func(bench.Config) bool) []bench.Outcome {
	b.Helper()
	s, _ := campaign.Named(set)
	var cfgs []bench.Config
	for _, t := range s.Tables {
		if !strings.HasPrefix(t.Title, title) {
			continue
		}
		for _, cfg := range s.Points(t) {
			if keep == nil || keep(cfg) {
				cfgs = append(cfgs, cfg)
			}
		}
	}
	if testing.Short() {
		q := bench.Quick()
		campaign.Apply(cfgs, q.Warmup, q.Duration)
	}
	outs := campaign.Run(cfgs, campaign.Options{Workers: 1})
	if len(outs) == 0 {
		b.Fatalf("set %s has no rows for %q", set, title)
	}
	if err := campaign.Check(outs); err != nil {
		b.Fatal(err)
	}
	return outs
}

// result returns the result of the first row whose config matches.
func result(b *testing.B, outs []bench.Outcome, match func(bench.Config) bool) bench.Result {
	b.Helper()
	for _, out := range outs {
		if match(out.Config) {
			return out.Result
		}
	}
	b.Fatal("no row matches")
	return bench.Result{}
}

func system(m bench.Mode, n bench.NICKind, d bench.Direction) func(bench.Config) bool {
	return func(c bench.Config) bool { return c.Mode == m && c.NIC == n && c.Dir == d }
}

func BenchmarkTable1NativeVsXen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outs := rows(b, "table1", "Table 1:", nil)
		b.ReportMetric(result(b, outs, system(bench.ModeNative, bench.NICIntel, bench.Tx)).Mbps, "native-tx:Mb/s")
		b.ReportMetric(result(b, outs, system(bench.ModeXen, bench.NICIntel, bench.Tx)).Mbps, "xen-tx:Mb/s")
		b.ReportMetric(result(b, outs, system(bench.ModeNative, bench.NICIntel, bench.Rx)).Mbps, "native-rx:Mb/s")
		b.ReportMetric(result(b, outs, system(bench.ModeXen, bench.NICIntel, bench.Rx)).Mbps, "xen-rx:Mb/s")
	}
}

// architectures reports Table 2 (transmit) or Table 3 (receive).
func architectures(b *testing.B, title string, dir bench.Direction) {
	for i := 0; i < b.N; i++ {
		outs := rows(b, "tables", title, nil)
		cdna := result(b, outs, system(bench.ModeCDNA, bench.NICRice, dir))
		b.ReportMetric(result(b, outs, system(bench.ModeXen, bench.NICIntel, dir)).Mbps, "xen-intel:Mb/s")
		b.ReportMetric(result(b, outs, system(bench.ModeXen, bench.NICRice, dir)).Mbps, "xen-ricenic:Mb/s")
		b.ReportMetric(cdna.Mbps, "cdna:Mb/s")
		b.ReportMetric(100*cdna.Profile.Idle, "cdna-idle:%")
	}
}

func BenchmarkTable2Transmit(b *testing.B) { architectures(b, "Table 2:", bench.Tx) }

func BenchmarkTable3Receive(b *testing.B) { architectures(b, "Table 3:", bench.Rx) }

func BenchmarkTable4Protection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outs := rows(b, "tables", "Table 4:", func(c bench.Config) bool { return c.Dir == bench.Tx })
		on := result(b, outs, func(c bench.Config) bool { return c.Protection == core.ModeHypercall })
		off := result(b, outs, func(c bench.Config) bool { return c.Protection == core.ModeOff })
		b.ReportMetric(100*on.Profile.Hyp, "tx-prot-on-hyp:%")
		b.ReportMetric(100*off.Profile.Hyp, "tx-prot-off-hyp:%")
		b.ReportMetric(100*(off.Profile.Idle-on.Profile.Idle), "tx-idle-gain:%")
	}
}

// figureBench runs a reduced guest sweep (the full 8-point sweep lives
// in cmd/cdnatables).
func figureBench(b *testing.B, title string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		outs := rows(b, "figures", title, func(c bench.Config) bool {
			return c.Guests == 1 || c.Guests == 8 || c.Guests == 24
		})
		at24 := func(m bench.Mode) bench.Result {
			return result(b, outs, func(c bench.Config) bool { return c.Guests == 24 && c.Mode == m })
		}
		xen, cdna := at24(bench.ModeXen), at24(bench.ModeCDNA)
		b.ReportMetric(xen.Mbps, "xen-24g:Mb/s")
		b.ReportMetric(cdna.Mbps, "cdna-24g:Mb/s")
		b.ReportMetric(cdna.Mbps/xen.Mbps, "cdna/xen-24g:x")
	}
}

func BenchmarkFigure3TransmitScaling(b *testing.B) { figureBench(b, "Figure 3:") }

func BenchmarkFigure4ReceiveScaling(b *testing.B) { figureBench(b, "Figure 4:") }

func BenchmarkAblationInterrupts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outs := rows(b, "ablations", "Ablation A1", nil)
		b.ReportMetric(result(b, outs, func(c bench.Config) bool { return !c.DirectPerContextIRQ }).PhysIRQPerSec, "bitvec-irq/s")
		b.ReportMetric(result(b, outs, func(c bench.Config) bool { return c.DirectPerContextIRQ }).PhysIRQPerSec, "percontext-irq/s")
	}
}

func BenchmarkAblationBatching(b *testing.B) {
	batch := func(n int) func(bench.Config) bool {
		return func(c bench.Config) bool { return c.MaxEnqueueBatch == n }
	}
	for i := 0; i < b.N; i++ {
		outs := rows(b, "ablations", "Ablation A2", func(c bench.Config) bool {
			return batch(1)(c) || batch(8)(c) || batch(0)(c)
		})
		b.ReportMetric(100*result(b, outs, batch(1)).Profile.Hyp, "batch1-hyp:%")
		b.ReportMetric(100*result(b, outs, batch(0)).Profile.Hyp, "unlimited-hyp:%")
	}
}

func BenchmarkAblationIOMMU(b *testing.B) {
	prot := func(m core.Mode) func(bench.Config) bool {
		return func(c bench.Config) bool { return c.Protection == m }
	}
	for i := 0; i < b.N; i++ {
		outs := rows(b, "ablations", "Ablation A4", nil)
		b.ReportMetric(100*result(b, outs, prot(core.ModeHypercall)).Profile.Hyp, "hypercall-hyp:%")
		b.ReportMetric(100*result(b, outs, prot(core.ModeIOMMU)).Profile.Hyp, "iommu-hyp:%")
	}
}

// BenchmarkSingleRun measures the simulator itself: events per wall
// second for the standard CDNA transmit configuration — the end-to-end
// companion to the internal/sim micro-benchmarks.
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
// the body is shared with internal/sim and perfbench's probe via
// internal/sim/simbench.
func BenchmarkEngineScheduleFire(b *testing.B) { simbench.ScheduleFire(b) }
