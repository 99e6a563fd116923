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
//	cdnasim -mode cdna -hosts 4 -pattern incast -workload trace -tracefile internal/workload/testdata/smoke_trace.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"cdna/internal/bench"
	"cdna/internal/campaign"
	"cdna/internal/workload"
)

// maxTrace caps -trace: the flight recorder's ring is allocated before
// the run starts, at 24 bytes per event, so the cap bounds it at 24 MB.
const maxTrace = 1 << 20

func main() {
	flags := campaign.Bind(flag.CommandLine, campaign.Sim)
	verbose := flag.Bool("v", false, "print extra diagnostics")
	trace := flag.Int("trace", 0, "print the last N simulator events")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	err := flags.Parse(os.Args[1:])
	if err == nil && *trace < 0 {
		err = fmt.Errorf("-trace: %d is negative (0 prints no events)", *trace)
	}
	if err == nil && *trace > maxTrace {
		err = fmt.Errorf("-trace: %d is above the %d-event cap (the recorder is allocated up front)", *trace, maxTrace)
	}
	var cfg bench.Config
	if err == nil {
		cfg, err = flags.Config()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdnasim: %v\n", err)
		os.Exit(2)
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
	if wk := cfg.Workload.Kind; wk != workload.Bulk {
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
	if cfg.Fault.Kind != bench.FaultNone {
		// The effective schedule comes from the result's config: Prepare
		// fills the default quarter-window timing.
		f := res.Config.Fault
		fmt.Printf("fault %v at +%v for %v: link drops: %d  floods: %d  retransmits: %d\n",
			f.Kind, f.After, f.Outage, res.LinkDrops, res.FabricFlooded, res.Retransmits)
	}
}
