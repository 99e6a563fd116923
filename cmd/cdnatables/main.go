// Command cdnatables regenerates every table and figure of the paper's
// evaluation (§5) plus the ablations DESIGN.md calls out, printing each
// as an aligned text table.
//
// Usage:
//
//	cdnatables              # everything, full-length runs
//	cdnatables -quick       # shorter measurement windows
//	cdnatables -table 2     # only Table 2
//	cdnatables -figure 3    # only Figure 3
//	cdnatables -ablations   # only the ablation studies
//	cdnatables -topology    # only the cross-host fabric scenarios
//	cdnatables -fabrics     # only the multi-tier fabric + open-loop scenarios
//	cdnatables -workers 1   # sequential (default: all cores)
//	cdnatables -csvdir out  # also write each table as out/<slug>.csv
//	cdnatables -store dir   # serve repeated rows from a durable result cache
//
// Each table's experiments run in parallel through the campaign worker
// pool; results are deterministic regardless of worker count. With
// -store, every row is looked up in (and persisted to) the same
// content-addressed result store cdnasweep -store uses, so
// regenerating tables after a sweep — or re-running them at all —
// only simulates the delta; the printed tables are identical either
// way.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cdna/internal/bench"
	"cdna/internal/campaign"
	"cdna/internal/stats"
	"cdna/internal/store"
)

func main() {
	flags := campaign.Bind(flag.CommandLine, campaign.Tables)
	table := flag.Int("table", 0, "run only this table (1-4)")
	figure := flag.Int("figure", 0, "run only this figure (3-4)")
	ablations := flag.Bool("ablations", false, "run only the ablation studies")
	topology := flag.Bool("topology", false, "run only the cross-host fabric scenarios (incast, all-to-all)")
	fabrics := flag.Bool("fabrics", false, "run only the multi-tier fabric scenarios (cross-rack incast, oversubscription, open-loop load)")
	csvDir := flag.String("csvdir", "", "also write each table as CSV into this directory")
	err := flags.Parse(os.Args[1:])
	switch {
	case err != nil:
	case *table < 0 || *table > 4:
		err = fmt.Errorf("-table %d: no such table (want 1-4; 0 runs every table)", *table)
	case *figure != 0 && *figure != 3 && *figure != 4:
		err = fmt.Errorf("-figure %d: no such figure (want 3-4; 0 runs every figure)", *figure)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdnatables: %v\n", err)
		os.Exit(2)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
	}

	opts := bench.Full()
	if flags.Quick {
		opts = bench.Quick()
	}
	opts.Runner = campaign.Runner(flags.Workers)
	var cacheStats campaign.CacheStats
	if flags.Store != "" {
		s, err := store.Open(flags.Store)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		opts.Runner = campaign.CachedRunner(flags.Workers, s, &cacheStats)
	}

	type job struct {
		title string
		run   func() (*stats.Table, error)
	}
	var jobs []job
	add := func(title string, fn func() (*stats.Table, error)) {
		jobs = append(jobs, job{title, fn})
	}

	// The fabric scenarios are opt-in (beyond the paper's single-host
	// evaluation), so the default output stays exactly the paper set.
	wantTables := *table == 0 && *figure == 0 && !*ablations && !*topology && !*fabrics
	if wantTables || *table == 1 {
		add("Table 1: native Linux vs Xen guest (paper: native 5126/3629, Xen 1602/1112 Mb/s)", func() (*stats.Table, error) {
			t, _, err := bench.Table1(opts)
			return t, err
		})
	}
	if wantTables || *table == 2 {
		add("Table 2: single-guest transmit, 2 NICs (paper: 1602 / 1674 / 1867 Mb/s)", func() (*stats.Table, error) {
			t, _, err := bench.Table2(opts)
			return t, err
		})
	}
	if wantTables || *table == 3 {
		add("Table 3: single-guest receive, 2 NICs (paper: 1112 / 1075 / 1874 Mb/s)", func() (*stats.Table, error) {
			t, _, err := bench.Table3(opts)
			return t, err
		})
	}
	if wantTables || *table == 4 {
		add("Table 4: CDNA with and without DMA memory protection (paper: hyp 10.2->1.9%, idle +9.6)", func() (*stats.Table, error) {
			t, _, err := bench.Table4(opts)
			return t, err
		})
	}
	if wantTables || *figure == 3 {
		add("Figure 3: transmit throughput vs guests (paper: Xen 1602->891, CDNA ~1867 flat)", func() (*stats.Table, error) {
			t, _, err := bench.Figure3(opts, bench.FigureGuests)
			return t, err
		})
	}
	if wantTables || *figure == 4 {
		add("Figure 4: receive throughput vs guests (paper: Xen 1112->558, CDNA ~1874 flat)", func() (*stats.Table, error) {
			t, _, err := bench.Figure4(opts, bench.FigureGuests)
			return t, err
		})
	}
	if wantTables || *ablations {
		add("Ablation A1 (§3.2): interrupt bit vectors vs per-context interrupts, 8 guests", func() (*stats.Table, error) {
			t, _, err := bench.AblationInterrupts(opts, 8)
			return t, err
		})
		add("Ablation A2 (§3.3): descriptors per enqueue hypercall", func() (*stats.Table, error) {
			t, _, err := bench.AblationBatching(opts, []int{1, 2, 4, 8, 16, 0})
			return t, err
		})
		add("Ablation A4 (§5.3): protection via hypercall vs IOMMU vs disabled", func() (*stats.Table, error) {
			t, _, err := bench.AblationIOMMU(opts)
			return t, err
		})
		add("Ablation A5 (§5.1): transmit interrupt coalescing threshold", func() (*stats.Table, error) {
			t, _, err := bench.AblationCoalescing(opts, []int{2, 4, 8, 12, 24, 48})
			return t, err
		})
		add("Extension: full-duplex traffic (beyond the paper's unidirectional runs)", func() (*stats.Table, error) {
			t, _, err := bench.ExtensionDuplex(opts)
			return t, err
		})
		add("Extension (§5.4 conjecture): CDNA with four NICs vs guest count", func() (*stats.Table, error) {
			t, _, err := bench.ExtensionMoreNICs(opts, []int{1, 2, 4, 8, 16, 24})
			return t, err
		})
	}
	if *topology {
		add("Topology: N-to-1 incast over the switched fabric (Xen vs CDNA)", func() (*stats.Table, error) {
			t, _, err := bench.TopologyIncast(opts, []int{2, 4, 8})
			return t, err
		})
		add("Topology: all-to-all shuffle over the switched fabric", func() (*stats.Table, error) {
			t, _, err := bench.TopologyAllToAll(opts, []int{4, 8})
			return t, err
		})
	}
	if *fabrics {
		add("Fabric: cross-rack incast collapse (ToR vs leaf-spine vs fat-tree)", func() (*stats.Table, error) {
			t, _, err := bench.FabricIncast(opts, 4)
			return t, err
		})
		add("Fabric: core-link saturation vs oversubscription ratio (leaf-spine)", func() (*stats.Table, error) {
			t, _, err := bench.FabricOversub(opts, []float64{1, 2, 4})
			return t, err
		})
		add("Fabric: Xen vs CDNA under open-loop Poisson load (response-time collapse)", func() (*stats.Table, error) {
			t, _, err := bench.ScenarioOpenLoop(opts, []float64{50, 500, 4000})
			return t, err
		})
	}

	for _, j := range jobs {
		start := time.Now()
		fmt.Printf("=== %s ===\n", j.title)
		t, err := j.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(t.String())
		fmt.Printf("(completed in %.1fs wall clock)\n\n", time.Since(start).Seconds())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, j.title, t); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if flags.Store != "" {
		c := cacheStats.Counts()
		fmt.Fprintf(os.Stderr, "result store: %d hits / %d misses (hit rate %.0f%%)\n",
			c.Hits, c.Misses, c.HitRate()*100)
	}
}

// writeCSV stores a table as <dir>/<slug>.csv, slugging the part of
// the title before the colon ("Table 2: ..." -> table-2.csv).
func writeCSV(dir, title string, t *stats.Table) error {
	slug, _, _ := strings.Cut(title, ":")
	slug = strings.ToLower(strings.TrimSpace(slug))
	slug = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r == ' ':
			return '-'
		}
		return -1
	}, slug)
	f, err := os.Create(filepath.Join(dir, slug+".csv"))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
