// Command cdnasweep runs a whole experiment campaign — a grid of
// configurations — in parallel across a worker pool and emits the full
// machine-readable result set as JSON (and optionally CSV). One
// invocation with -preset paper reproduces every table and figure of
// the evaluation; EXPERIMENTS.md documents the output schema.
//
// Examples:
//
//	cdnasweep -preset tables -workers 8 -json results.json
//	cdnasweep -preset paper -quick -csv results.csv
//	cdnasweep -modes xen,cdna -dirs tx,rx -guests 1,2,4,8
//	cdnasweep -modes cdna -dirs tx -protections hypercall,iommu,off
//	cdnasweep -preset workloads -csv workloads.csv
//	cdnasweep -modes xen,cdna -workloads rr,churn,burst
//	cdnasweep -preset topology -json topo.json
//	cdnasweep -hosts 8 -preset topology
//	cdnasweep -modes xen,cdna -hosts 2,4,8 -patterns incast,all2all
//	cdnasweep -preset faults -json faults.json
//	cdnasweep -preset fabrics -json fabrics.json
//	cdnasweep -preset openloop -quick -csv openloop.csv
//	cdnasweep -modes xen,cdna -hosts 4 -patterns incast -fabrics tor,leafspine,fattree
//	cdnasweep -spec grid.json -workers 4
//	cdnasweep -store .cdna-store -preset faults     # durable result cache
//
// The -modes/-nics/-dirs/... axis flags define one cross-product grid;
// -spec reads one or more grids from a JSON file (the same schema
// campaign.Grid marshals to); -preset selects a canned campaign. A
// failing grid point is reported in its record and on stderr but never
// aborts the sweep; the exit status is 1 if any point failed.
//
// -store caches results in a content-addressed durable store, so
// repeated and overlapping sweeps only simulate the delta, and a killed
// sweep resumes by being rerun: the points it finished are served from
// the store, and the output is byte-identical to an uninterrupted run.
// DESIGN.md ("Result store") documents the store.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cdna/internal/bench"
	"cdna/internal/campaign"
	"cdna/internal/store"
)

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cdnasweep: "+format+"\n", args...)
	os.Exit(2)
}

// presetNames lists the named sets -preset selects, as the help text
// and the unknown-preset error show them.
func presetNames() string {
	var names []string
	for _, s := range campaign.Sets() {
		names = append(names, s.Name)
	}
	return strings.Join(names, " | ")
}

// presetHelp is the -preset usage: the names, then each set's title.
func presetHelp() string {
	help := "canned campaign: " + presetNames()
	for _, s := range campaign.Sets() {
		help += fmt.Sprintf("\n  %-10s %s", s.Name, s.Title)
	}
	return help
}

func presetGrids(name string) []campaign.Grid {
	s, ok := campaign.Named(name)
	if !ok {
		fatal("unknown preset %q (want %s)", name, presetNames())
	}
	return s.Grids
}

func main() {
	flags := campaign.Bind(flag.CommandLine, campaign.Sweep)
	preset := flag.String("preset", "", presetHelp())
	spec := flag.String("spec", "", "JSON grid spec file (a campaign.Grid object or array)")
	jsonPath := flag.String("json", "-", "JSON output path (- = stdout, empty = none)")
	csvPath := flag.String("csv", "", "CSV output path (- = stdout)")
	progress := flag.Bool("progress", true, "report per-experiment completion on stderr")
	expTimeout := flag.Duration("exp-timeout", 0, "per-experiment watchdog wall-clock deadline (0 = none)")
	requireHitRate := flag.Float64("require-hit-rate", 0, "with -store: exit 1 unless the sweep's cache hit rate reaches this fraction (0..1)")
	if err := flags.Parse(os.Args[1:]); err != nil {
		fatal("%v", err)
	}
	if *expTimeout < 0 {
		fatal("-exp-timeout: %v is negative (0 disables the watchdog)", *expTimeout)
	}

	gateHitRate := false
	flag.Visit(func(f *flag.Flag) { gateHitRate = gateHitRate || f.Name == "require-hit-rate" })
	switch {
	case gateHitRate && flags.Store == "":
		fatal("-require-hit-rate needs a cache: combine with -store")
	case gateHitRate && !(*requireHitRate >= 0 && *requireHitRate <= 1):
		fatal("-require-hit-rate is a fraction in [0, 1]")
	}

	// Axis flags define an ad-hoc grid; they cannot constrain a canned
	// preset or a spec file, so reject the combination instead of
	// silently ignoring them. -hosts is the exception: it overrides the
	// host axis of a preset/spec grid too (so `-hosts 8 -preset
	// topology` re-scales the whole canned campaign to one rack size).
	if *preset != "" || *spec != "" {
		for _, name := range flags.Given() {
			if name != "hosts" {
				fatal("-%s cannot be combined with -preset/-spec (axis flags define their own grid)", name)
			}
		}
	}

	var grids []campaign.Grid
	switch {
	case *preset != "" && *spec != "":
		fatal("-preset and -spec are mutually exclusive")
	case *preset != "":
		grids = presetGrids(*preset)
	case *spec != "":
		f, err := os.Open(*spec)
		if err != nil {
			fatal("%v", err)
		}
		grids, err = campaign.ReadGrids(f)
		f.Close()
		if err != nil {
			fatal("%v", err)
		}
	default:
		grids = []campaign.Grid{flags.Grid()}
	}
	if hs := flags.Grid().Hosts; len(hs) > 0 && (*preset != "" || *spec != "") {
		for i := range grids {
			grids[i].Hosts = hs
		}
	}

	cfgs := campaign.Expand(grids...)
	if len(cfgs) == 0 {
		fatal("grid expands to zero experiments")
	}
	g := flags.Grid()
	campaign.Apply(cfgs, g.Warmup, g.Duration)

	emit := func(path string, write func(f *os.File) error) {
		if path == "" {
			return
		}
		f := os.Stdout
		if path != "-" {
			var err error
			f, err = os.Create(path)
			if err != nil {
				fatal("%v", err)
			}
			defer f.Close()
		}
		if err := write(f); err != nil {
			fatal("%v", err)
		}
	}

	opt := campaign.Options{Workers: flags.Workers, Timeout: *expTimeout}
	var cacheStats campaign.CacheStats
	if flags.Store != "" {
		s, err := store.Open(flags.Store)
		if err != nil {
			fatal("%v", err)
		}
		opt.Exec = campaign.CachedExec(s, &cacheStats)
	}
	if *progress {
		opt.Progress = func(done, total int, out bench.Outcome) {
			status := fmt.Sprintf("%7.0f Mb/s", out.Result.Mbps)
			if out.Err != nil {
				status = "FAILED: " + out.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-32s %s\n", done, total, out.Config.Name(), status)
		}
	}
	start := time.Now()
	outs := campaign.Run(cfgs, opt)
	if *progress {
		fmt.Fprintf(os.Stderr, "%d experiments in %.1fs wall clock\n", len(outs), time.Since(start).Seconds())
	}
	if flags.Store != "" {
		c := cacheStats.Counts()
		fmt.Fprintf(os.Stderr, "cdnasweep: cache: %d hits / %d misses (hit rate %.0f%%)\n", c.Hits, c.Misses, c.HitRate()*100)
	}

	emit(*jsonPath, func(f *os.File) error { return campaign.WriteJSON(f, outs) })
	emit(*csvPath, func(f *os.File) error { return campaign.WriteCSV(f, outs) })

	if gateHitRate {
		if hr := cacheStats.Counts().HitRate(); hr < *requireHitRate {
			fmt.Fprintf(os.Stderr, "cdnasweep: cache hit rate %.2f below required %.2f\n", hr, *requireHitRate)
			os.Exit(1)
		}
	}
	if err := campaign.Check(outs); err != nil {
		fmt.Fprintf(os.Stderr, "cdnasweep: %v\n", err)
		os.Exit(1)
	}
}
