package campaign

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"cdna/internal/bench"
	"cdna/internal/core"
	"cdna/internal/enum"
	"cdna/internal/sim"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

// This file is the one binder from command-line flags to experiment
// configurations. Each config flag is one row of configFlags, which
// gives its cdnasim spelling (one value), its cdnasweep spelling (a
// comma list), its help and how a value lands in a Grid; cdnasim's
// single experiment is the one point of the Grid its flags build. The
// run flags the commands share (-quick, -warmup, -duration, -workers,
// -store) are declared once in Bind. Every numeric flag follows one
// rule: 0 selects the default, a negative value is an error.

// Tool selects the command whose flags Bind declares.
type Tool int

const (
	Sim    Tool = iota // cdnasim: one value per config flag, one experiment
	Sweep              // cdnasweep: comma-list axes, a campaign grid
	Tables             // cdnatables: run flags only
)

// Flags is one command's config and run flags, bound to a FlagSet.
// Parse fills the exported run flags and builds the Grid.
type Flags struct {
	Quick            bool
	Warmup, Duration float64 // simulated seconds; 0 = default
	Workers          int     // 0 = GOMAXPROCS
	Store            string  // durable result-store directory

	tool  Tool
	fs    *flag.FlagSet
	grid  Grid
	given []string
}

// configFlag is one config flag row.
type configFlag struct {
	sim, sweep string // spelling in each command; "" = not its flag
	// scalar marks an int row whose cdnasweep flag takes one value
	// (default 0) for every point instead of a comma list.
	scalar         bool
	def            any    // cdnasim default; its type is the flag's type
	help, listHelp string // cdnasim and cdnasweep help
	tokens         []string
	set            func(g *Grid, tok string) error
}

func (r configFlag) name(t Tool) string {
	return [...]string{Sim: r.sim, Sweep: r.sweep, Tables: ""}[t]
}

// enumFlag is a row whose values are tokens of t; help and listHelp
// show the tokens where they say %s.
func enumFlag[T ~int](sim, sweep, def string, t *enum.Table[T], help, listHelp string, add func(*Grid, T)) configFlag {
	return configFlag{sim: sim, sweep: sweep, def: def,
		help: fmt.Sprintf(help, t.List()), listHelp: fmt.Sprintf(listHelp, t.List()),
		tokens: strings.Split(t.List(), " | "),
		set: func(g *Grid, tok string) error {
			v, err := t.Parse(tok)
			if err == nil {
				add(g, v)
			}
			return err
		}}
}

// countFlag is a row of non-negative integers; 0 selects def.
func countFlag(sim, sweep string, def int, help, listHelp string, add func(*Grid, int)) configFlag {
	return configFlag{sim: sim, sweep: sweep, def: def, help: help, listHelp: listHelp,
		set: func(g *Grid, tok string) error {
			n, err := count(tok)
			if n == 0 {
				n = def
			}
			add(g, n)
			return err
		}}
}

// knob is the setter of a cdnasim-only row that fills one field of the
// spec its axis row made: specs returns the axis, or why the knob has
// nothing to apply to.
func knob[S, V any](specs func(*Grid) ([]S, error), parse func(string) (V, error), field func(*S) *V) func(*Grid, string) error {
	return func(g *Grid, tok string) error {
		ss, err := specs(g)
		if err != nil {
			return err
		}
		v, err := parse(tok)
		for i := range ss {
			*field(&ss[i]) = v
		}
		return err
	}
}

// multiTier is the -fabric axis, which a fabric knob needs to be a
// multi-tier kind: the single ToR switch has no tiers to shape.
func multiTier(g *Grid) ([]topo.FabricSpec, error) {
	if len(g.Fabrics) == 0 || slices.ContainsFunc(g.Fabrics, func(f topo.FabricSpec) bool { return f.Kind == topo.KindToR }) {
		return nil, fmt.Errorf("needs a multi-tier -fabric (leafspine | fattree)")
	}
	return g.Fabrics, nil
}

// faulted is the -fault axis, which a fault knob needs to name a
// scenario.
func faulted(g *Grid) ([]bench.FaultSpec, error) {
	if len(g.Faults) == 0 || slices.ContainsFunc(g.Faults, func(f bench.FaultSpec) bool { return f.Kind == bench.FaultNone }) {
		return nil, fmt.Errorf("needs a -fault scenario")
	}
	return g.Faults, nil
}

// workloads is the -workload axis, the default bulk spec when it is
// not given.
func workloads(g *Grid) ([]workload.Spec, error) {
	if len(g.Workloads) == 0 {
		g.Workloads = []workload.Spec{{}}
	}
	return g.Workloads, nil
}

// configFlags is every config flag, in the order Parse applies them:
// the knob rows at the end fill in the specs their axis rows made.
var configFlags = []configFlag{
	enumFlag("mode", "modes", "cdna", bench.Modes, "I/O architecture: %s", "comma list: %s",
		func(g *Grid, v bench.Mode) { g.Modes = append(g.Modes, v) }),
	enumFlag("nic", "nics", "", bench.NICKinds,
		"NIC model: %s (default: intel for xen/native, ricenic for cdna)",
		"comma list: %s (Xen only; native/CDNA fix their NIC)",
		func(g *Grid, v bench.NICKind) { g.NICs = append(g.NICs, v) }),
	enumFlag("dir", "dirs", "tx", bench.Directions, "traffic direction: %s", "comma list: %s",
		func(g *Grid, v bench.Direction) { g.Dirs = append(g.Dirs, v) }),
	countFlag("guests", "guests", 1, "number of guest domains", "comma list of guest counts",
		func(g *Grid, n int) { g.Guests = append(g.Guests, n) }),
	countFlag("nics", "niccounts", 2, "number of physical NICs", "comma list of physical NIC counts",
		func(g *Grid, n int) { g.NICCounts = append(g.NICCounts, n) }),
	enumFlag("protection", "protections", "hypercall", core.Modes, "CDNA protection: %s", "comma list: %s",
		func(g *Grid, v core.Mode) { g.Protections = append(g.Protections, v) }),
	countFlag("", "batches", 0, "", "comma list of max descriptors per enqueue (A2; 0 = unlimited)",
		func(g *Grid, n int) { g.MaxEnqueueBatches = append(g.MaxEnqueueBatches, n) }),
	{sweep: "irqs", listHelp: "comma list of bools: direct per-context IRQ delivery (A1)",
		set: func(g *Grid, tok string) error {
			b, err := strconv.ParseBool(tok)
			g.IRQDeliveries = append(g.IRQDeliveries, b)
			return err
		}},
	countFlag("", "coalesce", 0, "", "comma list of tx coalescing thresholds (A5; 0 = default)",
		func(g *Grid, n int) { g.TxCoalesce = append(g.TxCoalesce, n) }),
	enumFlag("workload", "workloads", "bulk", workload.Kinds,
		"traffic shape: %s", "comma list: %s (per-kind defaults; use -spec for knobs)",
		func(g *Grid, v workload.Kind) { g.Workloads = append(g.Workloads, workload.Spec{Kind: v}) }),
	countFlag("hosts", "hosts", 1, "machines on the switched fabric (1 = classic host+peer topology)",
		"comma list of fabric host counts (1 = classic host+peer; also overrides a preset's host axis)",
		func(g *Grid, n int) { g.Hosts = append(g.Hosts, n) }),
	enumFlag("pattern", "patterns", "pairs", bench.Patterns,
		"cross-host scenario (hosts > 1): %s", "comma list: %s (cross-host scenarios, hosts > 1)",
		func(g *Grid, v bench.Pattern) { g.Patterns = append(g.Patterns, v) }),
	enumFlag("fabric", "fabrics", "tor", topo.FabricKinds, "switching topology (hosts > 1): %s",
		"comma list: %s (switching topologies, hosts > 1; defaults per kind, use -spec for knobs)",
		func(g *Grid, v topo.FabricKind) { g.Fabrics = append(g.Fabrics, topo.FabricSpec{Kind: v}) }),
	enumFlag("fault", "faults", "none", bench.FaultKinds,
		"fault scenario: %s", "comma list: %s (default quarter-window schedule; use -spec for exact timing)",
		func(g *Grid, v bench.FaultKind) { g.Faults = append(g.Faults, bench.FaultSpec{Kind: v}) }),
	scalar(countFlag("conns", "conns", 0, "connections per guest per NIC (0 = balanced default)",
		"connections per guest per NIC (0 = balanced default)", func(g *Grid, n int) { g.Conns = n })),
	scalar(countFlag("window", "window", 48, "transport window in segments",
		"transport window in segments (0 = default)", func(g *Grid, n int) { g.Window = n })),

	{sim: "spines", def: 0, help: "spine (leafspine) or per-pod aggregation (fattree) switches (0 = default 2)",
		set: knob(multiTier, count, func(f *topo.FabricSpec) *int { return &f.Spines })},
	{sim: "hostsperleaf", def: 0, help: "hosts attached to each leaf/edge switch (0 = default 2)",
		set: knob(multiTier, count, func(f *topo.FabricSpec) *int { return &f.HostsPerLeaf })},
	{sim: "oversub", def: 0.0, help: "trunk oversubscription ratio (0 = non-blocking 1:1)",
		set: knob(multiTier, amount, func(f *topo.FabricSpec) *float64 { return &f.Oversub })},
	{sim: "fabricseed", def: uint64(0), help: "ECMP hash seed for multi-tier fabrics",
		set: knob(multiTier, seed, func(f *topo.FabricSpec) *uint64 { return &f.Seed })},
	{sim: "flowrate", def: 0.0, help: "open-loop workloads: mean flow arrivals/s per modeled client (0 = default)",
		set: knob(workloads, amount, func(w *workload.Spec) *float64 { return &w.FlowRate })},
	{sim: "clients", def: 0, help: "open-loop workloads: modeled clients per endpoint (0 = default 1)",
		set: knob(workloads, count, func(w *workload.Spec) *int { return &w.Clients })},
	{sim: "sizedist", def: "", help: "open-loop flow sizes: " + workload.SizeDists.List(),
		tokens: strings.Split(workload.SizeDists.List(), " | "),
		set:    knob(workloads, workload.SizeDists.Parse, func(w *workload.Spec) *workload.SizeDist { return &w.SizeDist })},
	{sim: "tracefile", def: "", help: "trace workload: CSV flow trace (arrival,src,dst,bytes)",
		set: knob(workloads, path, func(w *workload.Spec) *string { return &w.TracePath })},
	{sim: "fault-at", def: 0.0, help: "fault injection offset from window open, simulated seconds (0 = a quarter into the window)",
		set: knob(faulted, seconds, func(f *bench.FaultSpec) *sim.Time { return &f.After })},
	{sim: "fault-outage", def: 0.0, help: "fault duration before healing, simulated seconds (0 = a quarter window)",
		set: knob(faulted, seconds, func(f *bench.FaultSpec) *sim.Time { return &f.Outage })},
	{sim: "fault-target", def: 0, help: "victim link (linkflap) or switch port (portfail)",
		set: knob(faulted, count, func(f *bench.FaultSpec) *int { return &f.Target })},
}

func scalar(r configFlag) configFlag {
	r.scalar = true
	return r
}

// maxSeconds bounds simulated-time flags far below sim.Time's range,
// so warmup plus window cannot overflow it.
const maxSeconds = 1e6

// checkNumber rejects a negative, non-finite or too large number.
func checkNumber(x, max float64) error {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0):
		return fmt.Errorf("%g is not a finite number", x)
	case x < 0:
		return fmt.Errorf("%g is negative (0 selects the default)", x)
	case x > max:
		return fmt.Errorf("%g exceeds %g", x, max)
	}
	return nil
}

// count parses a non-negative integer.
func count(tok string) (int, error) {
	n, err := strconv.Atoi(tok)
	if err == nil && n < 0 {
		err = fmt.Errorf("%d is negative (0 selects the default)", n)
	}
	return n, err
}

// number parses a non-negative finite number no larger than max.
func number(tok string, max float64) (float64, error) {
	x, err := strconv.ParseFloat(tok, 64)
	if err == nil {
		err = checkNumber(x, max)
	}
	return x, err
}

func amount(tok string) (float64, error) { return number(tok, math.MaxFloat64) }

func seconds(tok string) (sim.Time, error) {
	x, err := number(tok, maxSeconds)
	return simTime(x), err
}

func simTime(x float64) sim.Time { return sim.Time(x * float64(sim.Second)) }

func seed(tok string) (uint64, error) { return strconv.ParseUint(tok, 10, 64) }

func path(tok string) (string, error) { return tok, nil }

// Bind declares the tool's config and run flags on fs.
func Bind(fs *flag.FlagSet, tool Tool) *Flags {
	f := &Flags{tool: tool, fs: fs}
	for _, r := range configFlags {
		switch name := r.name(tool); {
		case name == "":
		case tool == Sim:
			declare(fs, name, r.def, r.help)
		case r.scalar:
			fs.Int(name, 0, r.listHelp)
		default:
			fs.String(name, "", r.listHelp)
		}
	}
	if tool != Sim {
		fs.BoolVar(&f.Quick, "quick", false, "short measurement windows")
		workers, store := "concurrent experiments (0 = GOMAXPROCS)",
			"durable result-store directory: results already stored are not re-simulated"
		if tool == Tables {
			workers, store = "concurrent experiments per table (0 = GOMAXPROCS)",
				"durable result-store directory (shared with cdnasweep -store); rows already stored are not re-simulated"
		}
		fs.IntVar(&f.Workers, "workers", 0, workers)
		fs.StringVar(&f.Store, "store", "", store)
	}
	if tool != Tables {
		warmup, duration, unit := 0.0, 0.0, " in simulated seconds (overrides -quick)"
		if tool == Sim {
			warmup, duration, unit = 0.3, 1.0, ", simulated seconds"
		}
		fs.Float64Var(&f.Warmup, "warmup", warmup, "warmup"+unit)
		fs.Float64Var(&f.Duration, "duration", duration, "measurement window"+unit)
	}
	return f
}

// declare declares one flag whose type is def's type.
func declare(fs *flag.FlagSet, name string, def any, help string) {
	switch d := def.(type) {
	case string:
		fs.String(name, d, help)
	case int:
		fs.Int(name, d, help)
	case float64:
		fs.Float64(name, d, help)
	case uint64:
		fs.Uint64(name, d, help)
	default:
		panic(fmt.Sprintf("campaign: flag -%s has no flag type for default %T", name, def))
	}
}

// Parse parses the command line and builds the grid its config flags
// select, rejecting stray arguments, out-of-range numbers and values no
// experiment of the grid would use.
func (f *Flags) Parse(args []string) error {
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	if f.fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", f.fs.Args())
	}
	if f.Workers < 0 {
		return fmt.Errorf("-workers: %d is negative (0 selects GOMAXPROCS)", f.Workers)
	}
	if err := checkNumber(f.Warmup, maxSeconds); err != nil {
		return fmt.Errorf("-warmup: %v", err)
	}
	if err := checkNumber(f.Duration, maxSeconds); err != nil {
		return fmt.Errorf("-duration: %v", err)
	}
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	for _, r := range configFlags {
		name := r.name(f.tool)
		if name == "" || !set[name] {
			continue
		}
		f.given = append(f.given, name)
		val := strings.TrimSpace(f.fs.Lookup(name).Value.String())
		if val == "" {
			continue // selects nothing, as if not given
		}
		toks := []string{val}
		if f.tool == Sweep && !r.scalar {
			toks = strings.Split(val, ",")
		}
		for _, tok := range toks {
			if err := r.set(&f.grid, strings.TrimSpace(tok)); err != nil {
				return fmt.Errorf("-%s: %v", name, err)
			}
		}
	}
	if f.Quick {
		q := bench.Quick()
		f.grid.Warmup, f.grid.Duration = q.Warmup, q.Duration
	}
	if f.Warmup > 0 {
		f.grid.Warmup = simTime(f.Warmup)
	}
	if f.Duration > 0 {
		f.grid.Duration = simTime(f.Duration)
	}
	return f.checkUsed()
}

// flagName returns the tool's spelling of the row either of whose
// spellings is key.
func (f *Flags) flagName(key string) string {
	for _, r := range configFlags {
		if r.sim == key || r.sweep == key {
			return r.name(f.tool)
		}
	}
	return key
}

// checkUsed rejects an axis value that Grid.Points would drop from
// every point: a value that selects nothing is a mistyped experiment.
func (f *Flags) checkUsed() error {
	g := f.grid
	modes := modesOr(g.Modes)
	multiHost := slices.ContainsFunc(g.Hosts, func(h int) bool { return h > 1 })
	switch {
	case len(g.Patterns) > 0 && !multiHost:
		return fmt.Errorf("-%s requires -hosts > 1 (cross-host scenarios need a multi-host fabric)", f.flagName("pattern"))
	case len(g.Fabrics) > 0 && !multiHost:
		return fmt.Errorf("-%s requires -hosts > 1 (a multi-tier fabric needs a rack to connect)", f.flagName("fabric"))
	case !multiHost && slices.ContainsFunc(g.Faults, func(s bench.FaultSpec) bool { return s.Kind == bench.FaultPortFail }):
		return fmt.Errorf("-%s portfail requires -hosts > 1 (a port failure needs a switch)", f.flagName("fault"))
	case !slices.Contains(modes, bench.ModeCDNA):
		for _, key := range []string{"protection", "batches", "irqs", "coalesce"} {
			if name := f.flagName(key); slices.Contains(f.given, name) {
				return fmt.Errorf("-%s applies only to -%s cdna", name, f.flagName("mode"))
			}
		}
	}
	for _, k := range g.NICs {
		if !slices.ContainsFunc(modes, func(m bench.Mode) bool { return m.Drives(k) }) {
			return fmt.Errorf("-%s %s: no selected -%s drives it (native drives only intel, cdna only ricenic)",
				f.flagName("nic"), bench.NICKinds.String(k), f.flagName("mode"))
		}
	}
	if !slices.ContainsFunc(modes, func(m bench.Mode) bool { return m != bench.ModeNative }) &&
		slices.ContainsFunc(g.Guests, func(n int) bool { return n != 1 }) {
		return fmt.Errorf("-%s applies only to xen and cdna (native runs one host OS)", f.flagName("guests"))
	}
	return nil
}

// Grid returns the grid the config flags select. Its measurement
// windows are the run flags': -quick windows, overridden by a positive
// -warmup or -duration; zero leaves each configuration's own.
func (f *Flags) Grid() Grid { return f.grid }

// Given returns the config flags set on the command line, in row order.
func (f *Flags) Given() []string { return f.given }

// Config returns cdnasim's experiment: the one point of the grid,
// validated as bench.Run would.
func (f *Flags) Config() (bench.Config, error) {
	pts := f.grid.Points()
	if len(pts) != 1 {
		return bench.Config{}, fmt.Errorf("flags select %d experiments, want one", len(pts))
	}
	if _, err := bench.Normalize(pts[0]); err != nil {
		return bench.Config{}, err
	}
	return pts[0], nil
}
