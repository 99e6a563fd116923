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
//	cdnatables -ablations   # only the ablation studies and extensions
//	cdnatables -topology    # only the cross-host fabric scenarios
//	cdnatables -fabrics     # only the multi-tier fabric and open-loop scenarios
//	cdnatables -workers 1   # sequential (default: all cores)
//	cdnatables -csvdir out  # also write each table as out/<slug>.csv
//	cdnatables -store dir   # serve repeated rows from a durable result cache
//
// Every table is declared in internal/campaign's named sets, the same
// sets cdnasweep -preset records. The experiments of one set's
// selected tables run as one batch through the campaign worker pool;
// results are deterministic regardless of worker count, and each set
// reports its wall clock after its last table. With -store, every row
// is looked up in (and persisted to) the same content-addressed result
// store cdnasweep -store uses, so regenerating tables after a sweep —
// or re-running them at all — only simulates the delta; the printed
// tables are identical either way.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cdna/internal/campaign"
	"cdna/internal/stats"
	"cdna/internal/store"
)

func main() {
	flags := campaign.Bind(flag.CommandLine, campaign.Tables)
	table := flag.Int("table", 0, "run only this table (1-4)")
	figure := flag.Int("figure", 0, "run only this figure (3-4)")
	ablations := flag.Bool("ablations", false, "run only the ablation studies and the duplex and four-NIC extensions")
	topology := flag.Bool("topology", false, "run only the cross-host fabric scenarios (incast, churn, pairs, all-to-all)")
	fabrics := flag.Bool("fabrics", false, "run only the multi-tier fabric scenarios (incast, all-to-all, oversubscription, open-loop load)")
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

	opt := campaign.Options{Workers: flags.Workers}
	var cacheStats campaign.CacheStats
	if flags.Store != "" {
		s, err := store.Open(flags.Store)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		opt.Exec = campaign.CachedExec(s, &cacheStats)
	}

	// The scenario sets beyond the paper print only when asked for, so
	// the default output stays exactly the paper set.
	all := *table == 0 && *figure == 0 && !*ablations && !*topology && !*fabrics
	wants := func(set string, t campaign.Table) bool {
		switch set {
		case "table1", "tables":
			return all || strings.HasPrefix(t.Title, fmt.Sprintf("Table %d:", *table))
		case "figures":
			return all || strings.HasPrefix(t.Title, fmt.Sprintf("Figure %d:", *figure))
		case "ablations", "extensions":
			return all || *ablations
		case "topology":
			return *topology
		case "fabrics", "openloop":
			return *fabrics
		}
		return false
	}

	g := flags.Grid()
	for _, set := range campaign.Sets() {
		var tables []campaign.Table
		for _, t := range set.Tables {
			if wants(set.Name, t) {
				tables = append(tables, t)
			}
		}
		if len(tables) == 0 {
			continue
		}
		start := time.Now()
		outs := campaign.Run(campaign.Apply(set.Points(tables...), g.Warmup, g.Duration), opt)
		for _, out := range outs {
			if out.Err != nil {
				fmt.Fprintf(os.Stderr, "error: %s: %v\n", out.Config.Name(), out.Err)
				os.Exit(1)
			}
		}
		for i, t := range tables {
			tbl := t.Render(outs)
			fmt.Printf("=== %s ===\n%s", t.Title, tbl)
			if i == len(tables)-1 {
				fmt.Printf("(completed in %.1fs wall clock)\n", time.Since(start).Seconds())
			}
			fmt.Println()
			if *csvDir != "" {
				if err := writeCSV(*csvDir, t.Title, tbl); err != nil {
					fmt.Fprintf(os.Stderr, "error: %v\n", err)
					os.Exit(1)
				}
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
