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
	"strconv"
	"strings"
	"time"

	"cdna/internal/bench"
	"cdna/internal/campaign"
	"cdna/internal/core"
	"cdna/internal/sim"
	"cdna/internal/store"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cdnasweep: "+format+"\n", args...)
	os.Exit(2)
}

// splitList parses a comma-separated axis flag with a per-item parser.
func splitList[T any](name, s string, parse func(string) (T, error)) []T {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var vals []T
	for _, tok := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(tok))
		if err != nil {
			fatal("-%s: %v", name, err)
		}
		vals = append(vals, v)
	}
	return vals
}

// presets are the canned campaigns -preset selects, declared once for
// the help text, the lookup and the unknown-preset error.
var presets = []struct {
	name  string
	grids func() []campaign.Grid
}{
	{"table1", campaign.Table1Grids},
	{"tables", campaign.Tables234Grids},
	{"figures", campaign.FigureGrids},
	{"ablations", campaign.AblationGrids},
	{"workloads", campaign.WorkloadGrids},
	{"topology", campaign.TopologyGrids},
	{"faults", campaign.FaultGrids},
	{"fabrics", campaign.FabricGrids},
	{"openloop", campaign.OpenLoopGrids},
	{"paper", campaign.PaperGrids},
}

// presetNames lists the preset names as the help text shows them.
func presetNames() string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.name
	}
	return strings.Join(names, " | ")
}

func presetGrids(name string) []campaign.Grid {
	for _, p := range presets {
		if p.name == name {
			return p.grids()
		}
	}
	fatal("unknown preset %q (want %s)", name, presetNames())
	return nil
}

func main() {
	preset := flag.String("preset", "", "canned campaign: "+presetNames())
	spec := flag.String("spec", "", "JSON grid spec file (a campaign.Grid object or array)")

	modes := flag.String("modes", "", "comma list: native | xen | cdna")
	nics := flag.String("nics", "", "comma list: intel | ricenic (Xen only; native/CDNA fix their NIC)")
	dirs := flag.String("dirs", "", "comma list: tx | rx | both")
	guests := flag.String("guests", "", "comma list of guest counts")
	nicCounts := flag.String("niccounts", "", "comma list of physical NIC counts")
	protections := flag.String("protections", "", "comma list: hypercall | iommu | off")
	batches := flag.String("batches", "", "comma list of max descriptors per enqueue (A2; 0 = unlimited)")
	irqs := flag.String("irqs", "", "comma list of bools: direct per-context IRQ delivery (A1)")
	coalesce := flag.String("coalesce", "", "comma list of tx coalescing thresholds (A5; 0 = default)")
	workloads := flag.String("workloads", "", "comma list: bulk | rr | churn | burst (per-kind defaults; use -spec for knobs)")
	hosts := flag.String("hosts", "", "comma list of fabric host counts (1 = classic host+peer; also overrides a preset's host axis)")
	patterns := flag.String("patterns", "", "comma list: pairs | incast | all2all (cross-host scenarios, hosts > 1)")
	fabrics := flag.String("fabrics", "", "comma list: tor | leafspine | fattree (switching topologies, hosts > 1; defaults per kind, use -spec for knobs)")
	faults := flag.String("faults", "", "comma list: none | linkflap | portfail | blackout (default quarter-window schedule; use -spec for exact timing)")
	conns := flag.Int("conns", 0, "connections per guest per NIC (0 = balanced default)")
	window := flag.Int("window", 0, "transport window in segments (0 = default)")

	quick := flag.Bool("quick", false, "short measurement windows")
	duration := flag.Float64("duration", 0, "measurement window in simulated seconds (overrides -quick)")
	warmup := flag.Float64("warmup", 0, "warmup in simulated seconds (overrides -quick)")
	workers := flag.Int("workers", 0, "concurrent experiments (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "-", "JSON output path (- = stdout, empty = none)")
	csvPath := flag.String("csv", "", "CSV output path (- = stdout)")
	progress := flag.Bool("progress", true, "report per-experiment completion on stderr")

	storeDir := flag.String("store", "", "durable result-store directory: results already stored are not re-simulated")
	expTimeout := flag.Duration("exp-timeout", 0, "per-experiment watchdog wall-clock deadline (0 = none)")
	requireHitRate := flag.Float64("require-hit-rate", 0, "with -store: exit 1 unless the sweep's cache hit rate reaches this fraction (0..1)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected arguments %q", flag.Args())
	}

	gateHitRate := false
	flag.Visit(func(f *flag.Flag) { gateHitRate = gateHitRate || f.Name == "require-hit-rate" })
	switch {
	case gateHitRate && *storeDir == "":
		fatal("-require-hit-rate needs a cache: combine with -store")
	case gateHitRate && !(*requireHitRate >= 0 && *requireHitRate <= 1):
		fatal("-require-hit-rate is a fraction in [0, 1]")
	}

	// Axis flags define an ad-hoc grid; they cannot constrain a canned
	// preset or a spec file, so reject the combination instead of
	// silently ignoring them. -hosts is the exception: it overrides the
	// host axis of a preset/spec grid too (so `-hosts 8 -preset
	// topology` re-scales the whole canned campaign to one rack size).
	axisFlags := map[string]bool{
		"modes": true, "nics": true, "dirs": true, "guests": true,
		"niccounts": true, "protections": true, "batches": true,
		"irqs": true, "coalesce": true, "conns": true, "window": true,
		"workloads": true, "patterns": true, "faults": true, "fabrics": true,
	}
	if *preset != "" || *spec != "" {
		flag.Visit(func(f *flag.Flag) {
			if axisFlags[f.Name] {
				fatal("-%s cannot be combined with -preset/-spec (axis flags define their own grid)", f.Name)
			}
		})
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
		g := campaign.Grid{
			Modes:             splitList("modes", *modes, bench.ParseMode),
			NICs:              splitList("nics", *nics, bench.ParseNICKind),
			Dirs:              splitList("dirs", *dirs, bench.ParseDirection),
			Guests:            splitList("guests", *guests, strconv.Atoi),
			NICCounts:         splitList("niccounts", *nicCounts, strconv.Atoi),
			Protections:       splitList("protections", *protections, core.ParseMode),
			MaxEnqueueBatches: splitList("batches", *batches, strconv.Atoi),
			IRQDeliveries:     splitList("irqs", *irqs, strconv.ParseBool),
			TxCoalesce:        splitList("coalesce", *coalesce, strconv.Atoi),
			Workloads: splitList("workloads", *workloads, func(s string) (workload.Spec, error) {
				k, err := workload.ParseKind(s)
				return workload.Spec{Kind: k}, err
			}),
			Hosts:    splitList("hosts", *hosts, strconv.Atoi),
			Patterns: splitList("patterns", *patterns, bench.ParsePattern),
			Fabrics: splitList("fabrics", *fabrics, func(s string) (topo.FabricSpec, error) {
				k, err := topo.ParseFabricKind(s)
				return topo.FabricSpec{Kind: k}, err
			}),
			Faults: splitList("faults", *faults, func(s string) (bench.FaultSpec, error) {
				k, err := bench.ParseFaultKind(s)
				return bench.FaultSpec{Kind: k}, err
			}),
			Conns:  *conns,
			Window: *window,
		}
		if len(g.Dirs) == 0 {
			g.Dirs = []bench.Direction{bench.Tx}
		}
		// A pattern axis without a host axis would be silently collapsed
		// by the single-host default — reject it like any other
		// constraint the grid cannot honor.
		if len(g.Patterns) > 0 && len(g.Hosts) == 0 {
			fatal("-patterns requires -hosts (cross-host scenarios need a multi-host fabric)")
		}
		if len(g.Fabrics) > 0 && len(g.Hosts) == 0 {
			fatal("-fabrics requires -hosts (a multi-tier fabric needs a rack to connect)")
		}
		grids = []campaign.Grid{g}
	}
	if *hosts != "" && (*preset != "" || *spec != "") {
		hs := splitList("hosts", *hosts, strconv.Atoi)
		for i := range grids {
			grids[i].Hosts = hs
		}
	}

	cfgs := campaign.Expand(grids...)
	if len(cfgs) == 0 {
		fatal("grid expands to zero experiments")
	}
	wu, du := sim.Time(0), sim.Time(0)
	if *quick {
		o := bench.Quick()
		wu, du = o.Warmup, o.Duration
	}
	if *warmup > 0 {
		wu = sim.Time(*warmup * float64(sim.Second))
	}
	if *duration > 0 {
		du = sim.Time(*duration * float64(sim.Second))
	}
	campaign.Apply(cfgs, wu, du)

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

	opt := campaign.Options{Workers: *workers, Timeout: *expTimeout}
	var cacheStats campaign.CacheStats
	if *storeDir != "" {
		s, err := store.Open(*storeDir)
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
	if *storeDir != "" {
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
