// Command cdnasim runs a single CDNA/Xen/native experiment and prints
// the measured row: throughput, the six-column execution profile, and
// interrupt rates — the same columns as the paper's Tables 2–4.
//
// Examples:
//
//	cdnasim -mode cdna -dir tx
//	cdnasim -mode xen -nic intel -dir rx -guests 8
//	cdnasim -mode native -nics 6 -dir tx
//	cdnasim -mode cdna -protection off -dir tx
//	cdnasim -mode cdna -workload rr -v
//	cdnasim -mode xen -workload churn -v
//	cdnasim -mode cdna -hosts 4 -pattern incast -v
//	cdnasim -mode xen -hosts 8 -pattern all2all
//	cdnasim -mode cdna -hosts 3 -pattern incast -fault linkflap
//	cdnasim -mode cdna -hosts 3 -fault portfail -fault-at 0.2 -fault-outage 0.1 -fault-target 2
//	cdnasim -mode cdna -hosts 4 -pattern incast -fabric leafspine -spines 2
//	cdnasim -mode cdna -hosts 4 -pattern pairs -fabric leafspine -hostsperleaf 1 -oversub 4
//	cdnasim -mode cdna -hosts 4 -pattern incast -fabric leafspine -workload poisson -flowrate 2000 -sizedist websearch
//	cdnasim -mode cdna -hosts 4 -workload trace -tracefile flows.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"cdna/internal/bench"
	"cdna/internal/core"
	"cdna/internal/sim"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

func main() {
	mode := flag.String("mode", "cdna", "I/O architecture: native | xen | cdna")
	nic := flag.String("nic", "", "NIC model: intel | ricenic (default: intel for xen/native, ricenic for cdna)")
	dir := flag.String("dir", "tx", "traffic direction: tx | rx | both")
	guests := flag.Int("guests", 1, "number of guest domains")
	nics := flag.Int("nics", 2, "number of physical NICs")
	conns := flag.Int("conns", 0, "connections per guest per NIC (0 = balanced default)")
	window := flag.Int("window", 48, "transport window in segments")
	protection := flag.String("protection", "hypercall", "CDNA protection: hypercall | iommu | off")
	wl := flag.String("workload", "bulk", "traffic shape: bulk | rr | churn | burst")
	hosts := flag.Int("hosts", 1, "machines on the switched fabric (1 = classic host+peer topology)")
	pattern := flag.String("pattern", "pairs", "cross-host scenario (hosts > 1): pairs | incast | all2all")
	fabric := flag.String("fabric", "tor", "switching topology (hosts > 1): tor | leafspine | fattree")
	spines := flag.Int("spines", 0, "spine (leafspine) or per-pod aggregation (fattree) switches (0 = default 2)")
	hostsPerLeaf := flag.Int("hostsperleaf", 0, "hosts attached to each leaf/edge switch (0 = default 2)")
	oversub := flag.Float64("oversub", 0, "trunk oversubscription ratio (0 = non-blocking 1:1)")
	fabricSeed := flag.Uint64("fabricseed", 0, "ECMP hash seed for multi-tier fabrics")
	flowRate := flag.Float64("flowrate", 0, "open-loop workloads: mean flow arrivals/s per modeled client (0 = default)")
	clients := flag.Int("clients", 0, "open-loop workloads: modeled clients per endpoint (0 = default 1)")
	sizeDist := flag.String("sizedist", "", "open-loop flow sizes: fixed | pareto | websearch | datamining")
	traceFile := flag.String("tracefile", "", "trace workload: CSV flow trace (arrival,src,dst,bytes)")
	fault := flag.String("fault", "none", "fault scenario: none | linkflap | portfail | blackout")
	faultAt := flag.Float64("fault-at", 0, "fault injection offset from window open, simulated seconds (0 = a quarter into the window)")
	faultOutage := flag.Float64("fault-outage", 0, "fault duration before healing, simulated seconds (0 = a quarter window)")
	faultTarget := flag.Int("fault-target", 0, "victim link (linkflap) or switch port (portfail)")
	duration := flag.Float64("duration", 1.0, "measurement window, simulated seconds")
	warmup := flag.Float64("warmup", 0.3, "warmup, simulated seconds")
	verbose := flag.Bool("v", false, "print extra diagnostics")
	trace := flag.Int("trace", 0, "print the last N simulator events")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	m, err := bench.ParseMode(*mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	k := bench.NICIntel
	if m == bench.ModeCDNA {
		k = bench.NICRice
	}
	if *nic != "" {
		if k, err = bench.ParseNICKind(*nic); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
	}
	d, err := bench.ParseDirection(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	p, err := core.ParseMode(*protection)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	wk, err := workload.ParseKind(*wl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}

	pat, err := bench.ParsePattern(*pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	fk, err := bench.ParseFaultKind(*fault)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	if *hosts <= 1 && pat != bench.PatternPairs {
		fmt.Fprintf(os.Stderr, "-pattern %v requires -hosts > 1 (the classic topology has no fabric)\n", pat)
		os.Exit(2)
	}
	fbKind, err := topo.ParseFabricKind(*fabric)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	if *hosts <= 1 && fbKind != topo.KindToR {
		fmt.Fprintf(os.Stderr, "-fabric %v requires -hosts > 1 (a multi-tier fabric needs a rack to connect)\n", fbKind)
		os.Exit(2)
	}
	var sd workload.SizeDist
	if *sizeDist != "" {
		if sd, err = workload.ParseSizeDist(*sizeDist); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
	}

	cfg := bench.DefaultConfig(m, k, d)
	cfg.Workload = workload.Spec{
		Kind:      wk,
		FlowRate:  *flowRate,
		Clients:   *clients,
		SizeDist:  sd,
		TracePath: *traceFile,
	}
	cfg.Guests = *guests
	cfg.NICs = *nics
	cfg.Window = *window
	cfg.Protection = p
	if *hosts > 1 {
		cfg.Hosts = *hosts
		cfg.Pattern = pat
		if fbKind != topo.KindToR {
			cfg.Fabric = topo.FabricSpec{
				Kind:         fbKind,
				HostsPerLeaf: *hostsPerLeaf,
				Spines:       *spines,
				Oversub:      *oversub,
				Seed:         *fabricSeed,
			}
		}
	}
	if *conns > 0 {
		cfg.ConnsPerGuestPerNIC = *conns
	} else {
		cfg.ConnsPerGuestPerNIC = 0 // balanced default chosen by Run
	}
	cfg.Duration = sim.Time(*duration * float64(sim.Second))
	cfg.Warmup = sim.Time(*warmup * float64(sim.Second))
	if fk != bench.FaultNone {
		// A zero outage selects the default quarter-window schedule.
		cfg.Fault = bench.FaultSpec{
			Kind:   fk,
			After:  sim.Time(*faultAt * float64(sim.Second)),
			Outage: sim.Time(*faultOutage * float64(sim.Second)),
			Target: *faultTarget,
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}()
	}

	var res bench.Result
	if *trace > 0 {
		var machine *bench.Machine
		machine, res, err = bench.RunTraced(cfg, *trace)
		if err == nil {
			for _, e := range machine.Tracer.Last(*trace) {
				fmt.Printf("%12v  %s\n", e.At, e.Name)
			}
		}
	} else {
		res, err = bench.Run(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(res)
	if *verbose {
		fmt.Printf("packets/s: %.0f  phys-irq/s: %.0f  drops: %d  retransmits: %d  fairness: %.3f  faults: %d  events: %d\n",
			res.PktPerSec, res.PhysIRQPerSec, res.Drops, res.Retransmits, res.Fairness, res.Faults, res.Events)
	}
	if wk != workload.Bulk {
		fmt.Printf("workload %v: rpc/s: %.0f  flows/s: %.0f  msg p50: %.0f us  p99: %.0f us\n",
			wk, res.RPCPerSec, res.FlowsPerSec, res.MsgLatP50us, res.MsgLatP99us)
	}
	if res.ArrivalsPerSec > 0 {
		fmt.Printf("open loop: arrivals/s: %.0f  completions/s: %.0f (arrivals outrunning completions = backlog growth)\n",
			res.ArrivalsPerSec, res.FlowsPerSec)
	}
	if res.TraceSkipped > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d trace events matched no connection (src/dst hosts vs -pattern %v wiring) and were skipped\n",
			res.TraceSkipped, cfg.Pattern)
	}
	if cfg.Hosts > 1 {
		fmt.Printf("fabric %v/%v over %d hosts: switch drops: %d  max egress depth: %d frames\n",
			res.Config.Fabric.Kind, cfg.Pattern, cfg.Hosts, res.FabricDrops, res.FabricMaxDepth)
	}
	if fk != bench.FaultNone {
		// The effective schedule comes from the result's config: Prepare
		// fills the default quarter-window timing.
		f := res.Config.Fault
		fmt.Printf("fault %v at +%v for %v: link drops: %d  floods: %d  retransmits: %d\n",
			f.Kind, f.After, f.Outage, res.LinkDrops, res.FabricFlooded, res.Retransmits)
	}
}
