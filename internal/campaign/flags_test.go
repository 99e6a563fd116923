package campaign

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"cdna/internal/bench"
	"cdna/internal/core"
	"cdna/internal/sim"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

// bind parses args as the tool's command line on a fresh FlagSet.
func bind(tool Tool, args string) (*Flags, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs, tool)
	return f, f.Parse(strings.Fields(args))
}

// simConfig binds a cdnasim command line and returns its experiment.
func simConfig(args string) (bench.Config, error) {
	f, err := bind(Sim, args)
	if err != nil {
		return bench.Config{}, err
	}
	return f.Config()
}

// TestFlagHelpNamesEveryToken: every enum-valued flag's help, in each
// command that declares it, names every token its parser accepts.
func TestFlagHelpNamesEveryToken(t *testing.T) {
	for _, tool := range []Tool{Sim, Sweep} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		Bind(fs, tool)
		for _, r := range configFlags {
			name := r.name(tool)
			if name == "" || r.tokens == nil {
				continue
			}
			usage := fs.Lookup(name).Usage
			for _, tok := range r.tokens {
				if !strings.Contains(usage, tok) {
					t.Errorf("-%s help %q does not name %q", name, usage, tok)
				}
			}
		}
	}
}

// TestSimDefaultsAreGridDefaults: giving every cdnasim config flag its
// help's default selects the same experiment as giving none, so the
// defaults -h shows are the defaults that run.
func TestSimDefaultsAreGridDefaults(t *testing.T) {
	args := "-hosts 2"
	for _, r := range configFlags {
		if r.sim == "" || r.sim == "hosts" || reflect.ValueOf(r.def).IsZero() {
			continue
		}
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		declare(fs, r.sim, r.def, "")
		args += " -" + r.sim + " " + fs.Lookup(r.sim).DefValue
	}
	want, err := simConfig("-hosts 2")
	if err != nil {
		t.Fatal(err)
	}
	got, err := simConfig(args)
	if err != nil {
		t.Fatalf("%s: %v", args, err)
	}
	if got != want {
		t.Fatalf("%s selects\n%+v\nwant\n%+v", args, got, want)
	}
}

// TestSimConfigMatchesHandBuilt: documented cdnasim invocations select
// the configuration written out field by field, with the connection
// count left for bench.Normalize to balance.
func TestSimConfigMatchesHandBuilt(t *testing.T) {
	config := func(m bench.Mode, k bench.NICKind, d bench.Direction, mod func(*bench.Config)) bench.Config {
		cfg := bench.DefaultConfig(m, k, d)
		cfg.ConnsPerGuestPerNIC = 0
		mod(&cfg)
		return cfg
	}
	rice := func(mod func(*bench.Config)) bench.Config {
		return config(bench.ModeCDNA, bench.NICRice, bench.Tx, mod)
	}
	for _, tc := range []struct {
		args string
		want bench.Config
	}{
		{"-mode xen -nic intel -dir rx -guests 8", config(bench.ModeXen, bench.NICIntel, bench.Rx,
			func(c *bench.Config) { c.Guests = 8 })},
		{"-mode xen -nic ricenic -dir both", config(bench.ModeXen, bench.NICRice, bench.Both, func(*bench.Config) {})},
		{"-mode native -nics 6 -dir tx", config(bench.ModeNative, bench.NICIntel, bench.Tx,
			func(c *bench.Config) { c.NICs = 6 })},
		{"-mode cdna -protection off -conns 3 -window 24", rice(func(c *bench.Config) {
			c.Protection, c.ConnsPerGuestPerNIC, c.Window = core.ModeOff, 3, 24
		})},
		{"-mode cdna -hosts 3 -fault portfail -fault-at 0.2 -fault-outage 0.1 -fault-target 2", rice(func(c *bench.Config) {
			c.Hosts = 3
			c.Fault = bench.FaultSpec{Kind: bench.FaultPortFail, After: 200 * sim.Millisecond, Outage: 100 * sim.Millisecond, Target: 2}
		})},
		{"-mode cdna -hosts 4 -pattern pairs -fabric leafspine -hostsperleaf 1 -oversub 4 -spines 3 -fabricseed 9", rice(func(c *bench.Config) {
			c.Hosts = 4
			c.Fabric = topo.FabricSpec{Kind: topo.KindLeafSpine, HostsPerLeaf: 1, Spines: 3, Oversub: 4, Seed: 9}
		})},
		{"-mode cdna -hosts 4 -pattern incast -fabric leafspine -workload poisson -flowrate 2000 -sizedist websearch -clients 2", rice(func(c *bench.Config) {
			c.Hosts, c.Pattern = 4, bench.PatternIncast
			c.Fabric = topo.FabricSpec{Kind: topo.KindLeafSpine}
			c.Workload = workload.Spec{Kind: workload.Poisson, FlowRate: 2000, SizeDist: workload.SizeWebSearch, Clients: 2}
		})},
		{"-mode cdna -hosts 4 -workload trace -tracefile flows.csv -warmup 0.02 -duration 0.05", rice(func(c *bench.Config) {
			c.Hosts = 4
			c.Workload = workload.Spec{Kind: workload.Trace, TracePath: "flows.csv"}
			c.Warmup, c.Duration = 20*sim.Millisecond, 50*sim.Millisecond
		})},
		// 0 selects each default.
		{"-guests 0 -nics 0 -hosts 0 -window 0 -conns 0 -warmup 0 -duration 0", rice(func(*bench.Config) {})},
	} {
		got, err := simConfig(tc.args)
		if err != nil {
			t.Errorf("%s: %v", tc.args, err)
			continue
		}
		want, err := bench.Normalize(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ = bench.Normalize(got); got != want {
			t.Errorf("%s selects\n%+v\nwant\n%+v", tc.args, got, want)
		}
	}
}

// TestSweepFlagsBuildGrid: cdnasweep's list flags become the grid's
// axes, scalar flags its overrides, and the run flags its windows.
func TestSweepFlagsBuildGrid(t *testing.T) {
	f, err := bind(Sweep, "-modes xen,cdna -nics intel,ricenic -dirs tx,rx -guests 1,0,4 -niccounts 2 "+
		"-protections hypercall,off -batches 1,0 -irqs true -coalesce 8 -workloads rr,churn "+
		"-hosts 1,4 -patterns incast -fabrics tor,fattree -faults none,portfail -conns 3 -window 0 -quick -duration 0.2")
	if err != nil {
		t.Fatal(err)
	}
	q := bench.Quick()
	want := Grid{
		Modes:             []bench.Mode{bench.ModeXen, bench.ModeCDNA},
		NICs:              []bench.NICKind{bench.NICIntel, bench.NICRice},
		Dirs:              []bench.Direction{bench.Tx, bench.Rx},
		Guests:            []int{1, 1, 4},
		NICCounts:         []int{2},
		Protections:       []core.Mode{core.ModeHypercall, core.ModeOff},
		MaxEnqueueBatches: []int{1, 0},
		IRQDeliveries:     []bool{true},
		TxCoalesce:        []int{8},
		Workloads:         []workload.Spec{{Kind: workload.RequestResponse}, {Kind: workload.Churn}},
		Hosts:             []int{1, 4},
		Patterns:          []bench.Pattern{bench.PatternIncast},
		Fabrics:           []topo.FabricSpec{{}, {Kind: topo.KindFatTree}},
		Faults:            []bench.FaultSpec{{}, {Kind: bench.FaultPortFail}},
		Conns:             3,
		Window:            48,
		Warmup:            q.Warmup,
		Duration:          200 * sim.Millisecond,
	}
	if got := f.Grid(); !reflect.DeepEqual(got, want) {
		t.Fatalf("grid\n%+v\nwant\n%+v", got, want)
	}
	if got := f.Given(); len(got) != 16 || got[0] != "modes" || got[15] != "window" {
		t.Fatalf("given flags %v", got)
	}
}

// TestBindRejects: input no experiment would use, stray arguments and
// out-of-range numbers are errors that name the flag, in every tool.
func TestBindRejects(t *testing.T) {
	for _, tc := range []struct {
		tool      Tool
		args, msg string
	}{
		{Sim, "-mode xen tx -duration 0.01", `unexpected arguments ["tx" "-duration" "0.01"]`},
		{Tables, "-quick 2", `unexpected arguments ["2"]`},
		{Sweep, "-modes xen extra", `unexpected arguments ["extra"]`},
		{Sim, "-hosts 4 -fabric tor -spines 7", "-spines: needs a multi-tier -fabric (leafspine | fattree)"},
		{Sim, "-hosts 4 -fabricseed 3", "-fabricseed: needs a multi-tier -fabric"},
		{Sim, "-hosts 3 -fault-at 0.2", "-fault-at: needs a -fault scenario"},
		{Sim, "-fault none -fault-target 1", "-fault-target: needs a -fault scenario"},
		{Sim, "-window -4", "-window: -4 is negative (0 selects the default)"},
		{Sweep, "-window -4", "-window: -4 is negative (0 selects the default)"},
		{Sweep, "-duration -1", "-duration: -1 is negative (0 selects the default)"},
		{Sim, "-warmup NaN", "-warmup: NaN is not a finite number"},
		{Sim, "-duration 1e300", "-duration: 1e+300 exceeds 1e+06"},
		{Sim, "-hosts 3 -fault linkflap -fault-at 2e6", "-fault-at: 2e+06 exceeds 1e+06"},
		{Sim, "-conns -3", "-conns: -3 is negative"},
		{Sweep, "-guests 1,-2", "-guests: -2 is negative"},
		{Sweep, "-workers -1", "-workers: -1 is negative (0 selects GOMAXPROCS)"},
		{Tables, "-workers -1", "-workers: -1 is negative"},
		{Sim, "-hosts 4 -fabric leafspine -oversub -2", "-oversub: -2 is negative"},
		{Sim, "-mode cdna -nic intel", "-nic intel: no selected -mode drives it (native drives only intel, cdna only ricenic)"},
		{Sim, "-mode native -nic ricenic", "-nic ricenic: no selected -mode drives it"},
		{Sweep, "-modes native,cdna -nics ricenic,intel", ""},
		{Sweep, "-modes cdna -nics intel", "-nics intel: no selected -modes drives it"},
		{Sim, "-pattern incast", "-pattern requires -hosts > 1 (cross-host scenarios need a multi-host fabric)"},
		{Sim, "-hosts 1 -pattern pairs", "-pattern requires -hosts > 1"},
		{Sweep, "-modes cdna -patterns incast", "-patterns requires -hosts > 1"},
		{Sweep, "-hosts 1,4 -patterns incast", ""},
		{Sim, "-fabric leafspine", "-fabric requires -hosts > 1 (a multi-tier fabric needs a rack to connect)"},
		{Sim, "-fault portfail", "-fault portfail requires -hosts > 1 (a port failure needs a switch)"},
		{Sweep, "-faults none,portfail", "-faults portfail requires -hosts > 1"},
		{Sim, "-mode xen -protection iommu", "-protection applies only to -mode cdna"},
		{Sweep, "-modes native,xen -batches 4", "-batches applies only to -modes cdna"},
		{Sim, "-mode native -guests 4", "-guests applies only to xen and cdna (native runs one host OS)"},
		{Sweep, "-modes native,xen -guests 4", ""},
		{Sweep, "-dirs 7", `-dirs: bench: unknown direction "7" (want tx | rx | both)`},
		{Sim, "-workload storm", `-workload: workload: unknown kind "storm" (want bulk | rr | churn | burst | poisson | pareto | trace)`},
		{Sim, "-guests 300 -hosts 4", "bench: configs need guests and NICs <= 255"},
		{Sim, "-guests 256", "bench: configs need guests and NICs <= 255"},
		{Sim, "-mode native -nics 100000000", "bench: configs need guests and NICs <= 255"},
		{Sim, "-guests 255 -nics 255", ""},
		{Sim, "-tracefile flows.csv", "workload: trace path set on non-trace kind bulk"},
		{Sim, "-workload trace", "workload: trace workload needs a trace path"},
	} {
		f, err := bind(tc.tool, tc.args)
		if err == nil && tc.tool == Sim {
			_, err = f.Config()
		}
		switch {
		case tc.msg == "" && err != nil:
			t.Errorf("%s: %v", tc.args, err)
		case tc.msg != "" && (err == nil || !strings.Contains(err.Error(), tc.msg)):
			t.Errorf("%s: error %v; want %q", tc.args, err, tc.msg)
		}
	}
}

// FuzzBindFlags drives the binder with arbitrary command lines of every
// tool. The property: it returns an error or a grid, never panics, and
// a cdnasim experiment it returns passes bench.Normalize.
func FuzzBindFlags(f *testing.F) {
	for _, seed := range []struct {
		tool Tool
		args string
	}{
		// The commands' documented invocations, less the flags each
		// command declares itself (-v, -preset, -table, ...).
		{Sim, "-mode cdna -dir tx"},
		{Sim, "-mode xen -nic intel -dir rx -guests 8"},
		{Sim, "-mode native -nics 6 -dir tx"},
		{Sim, "-mode cdna -protection off -dir tx"},
		{Sim, "-mode cdna -workload rr"},
		{Sim, "-mode cdna -hosts 4 -pattern incast"},
		{Sim, "-mode xen -hosts 8 -pattern all2all"},
		{Sim, "-mode cdna -hosts 3 -pattern incast -fault linkflap"},
		{Sim, "-mode cdna -hosts 3 -fault portfail -fault-at 0.2 -fault-outage 0.1 -fault-target 2"},
		{Sim, "-mode cdna -hosts 4 -pattern incast -fabric leafspine -spines 2"},
		{Sim, "-mode cdna -hosts 4 -pattern pairs -fabric leafspine -hostsperleaf 1 -oversub 4"},
		{Sim, "-mode cdna -hosts 4 -pattern incast -fabric leafspine -workload poisson -flowrate 2000 -sizedist websearch"},
		{Sim, "-mode cdna -hosts 4 -workload trace -tracefile flows.csv"},
		{Sim, "-hosts 16 -fabric leafspine -hostsperleaf 4 -pattern all2all -warmup 0.05 -duration 0.2"},
		{Sweep, "-quick -workers 8"},
		{Sweep, "-modes xen,cdna -dirs tx,rx -guests 1,2,4,8"},
		{Sweep, "-modes cdna -dirs tx -protections hypercall,iommu,off"},
		{Sweep, "-modes xen,cdna -workloads rr,churn,burst"},
		{Sweep, "-hosts 8"},
		{Sweep, "-modes xen,cdna -hosts 2,4,8 -patterns incast,all2all"},
		{Sweep, "-modes xen,cdna -hosts 4 -patterns incast -fabrics tor,leafspine,fattree"},
		{Sweep, "-modes cdna -dirs tx -batches 1,4,16,0"},
		{Sweep, "-modes xen,cdna -dirs tx -hosts 3 -patterns incast -faults none,linkflap,portfail,blackout -warmup 0.02 -duration 0.05"},
		{Tables, "-quick -workers 4"},
		{Tables, "-quick -store .cdna-store"},
		// Extreme sizes: only validation may see them.
		{Sim, "-guests 100000000"},
		{Sim, "-mode native -nics 100000000"},
		{Sweep, "-modes xen,cdna -guests 1,255,256,100000000 -niccounts 1,100000000"},
	} {
		f.Add(uint8(seed.tool), seed.args)
	}
	f.Fuzz(func(t *testing.T, tool uint8, args string) {
		if len(args) > 200 {
			return // bounds the grid a sweep command line can build
		}
		fl, err := bind(Tool(tool%3), args)
		if err != nil {
			return
		}
		switch fl.tool {
		case Sim:
			cfg, err := fl.Config()
			if err != nil {
				return
			}
			if _, err := bench.Normalize(cfg); err != nil {
				t.Fatalf("%q: binder returned a config Normalize rejects: %v", args, err)
			}
			checkBounded(t, args, cfg)
		case Sweep:
			if points(fl.Grid()) <= 256 {
				for _, cfg := range fl.Grid().Points() {
					// An invalid point is an error record, never a panic.
					if _, err := bench.Normalize(cfg); err == nil {
						checkBounded(t, args, cfg)
					}
				}
			}
		}
	})
}

// points bounds the number of points a grid expands to.
func points(g Grid) int {
	n := 1
	for _, l := range []int{len(g.Modes), len(g.NICs), len(g.Dirs), len(g.Guests), len(g.NICCounts),
		len(g.Protections), len(g.MaxEnqueueBatches), len(g.IRQDeliveries), len(g.TxCoalesce),
		len(g.Workloads), len(g.Hosts), len(g.Patterns), len(g.Fabrics), len(g.Faults)} {
		n *= max(l, 1)
	}
	return n
}

// checkBounded fails unless a config that passed validation is one a
// machine can be built for: 1..255 guests and NICs, at most 256 hosts.
func checkBounded(t *testing.T, args string, cfg bench.Config) {
	t.Helper()
	if cfg.Guests < 1 || cfg.Guests > 255 || cfg.NICs < 1 || cfg.NICs > 255 || cfg.Hosts > 256 {
		t.Fatalf("%q: validation passed %d hosts, %d guests, %d NICs", args, cfg.Hosts, cfg.Guests, cfg.NICs)
	}
}
