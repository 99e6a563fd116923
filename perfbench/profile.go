package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"path"
	"strings"
	"time"
)

// modules are the buckets CPU-profile self time is attributed to, by the
// source file of the sampled leaf function: a package of internal/, with
// internal/sim split into sim.sched (the sched*.go queue files), sim.fifo
// (the generic containers other packages instantiate) and the rest. "other" takes every sample
// no other bucket claims, so the shares sum to 100%.
var modules = []string{
	"sim.sched", "sim.fifo", "sim", "ether", "topo", "nic", "ricenic", "intelnic",
	"core", "guest", "xen", "backend", "cpu", "mem", "ring", "bus", "transport",
	"workload", "stats", "bench", "campaign", "runtime", "other",
}

// moduleOf maps a source file name from the profile to its bucket. The
// benchmark is built with -trimpath, so file names start with a module
// path: "cdna@v0.0.0/internal/sim/engine.go" for the simulator (a
// dependency of the benchmark's module), "runtime/proc.go" for the
// standard library.
func moduleOf(file string) string {
	mod, rest, _ := strings.Cut(file, "/")
	if mod == "cdna" || strings.HasPrefix(mod, "cdna@") {
		rest, ok := strings.CutPrefix(rest, "internal/")
		if !ok {
			return "other"
		}
		pkg, _, _ := strings.Cut(rest, "/")
		if pkg == "sim" {
			switch base := path.Base(rest); {
			case strings.HasPrefix(base, "sched"):
				return "sim.sched"
			case base == "fifo.go" || base == "drain.go":
				return "sim.fifo"
			}
		}
		for _, m := range modules {
			if m == pkg {
				return m
			}
		}
		return "other"
	}
	if mod == "runtime" || strings.HasPrefix(file, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// cpuShares is self time per module, in percent of all samples.
type cpuShares struct {
	Share map[string]float64
	Total time.Duration // the profile's sampled CPU time
}

// profileShares buckets CPU profiles, merged, by module with
// `go tool pprof`.
func profileShares(profiles ...string) (cpuShares, error) {
	args := []string{"tool", "pprof", "-top", "-files", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}
	cmd := exec.Command("go", append(args, profiles...)...)
	b, err := cmd.Output()
	if err != nil {
		return cpuShares{}, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTopFiles(string(b))
}

// parseTopFiles reads `pprof -top -files` output: rows of
// "flat flat% sum% cum cum% file [(inline)]" after a header row. It
// checks that the rows add up to the total pprof reports, so no sample
// goes unattributed.
func parseTopFiles(out string) (cpuShares, error) {
	flat := make(map[string]time.Duration)
	var total, sum time.Duration
	header := false
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		f := strings.Fields(line)
		switch {
		case !header && strings.HasPrefix(line, "Showing nodes accounting for"):
			// "Showing nodes accounting for 1.20s, 100% of 1.20s total"
			if i := strings.Index(line, " of "); i >= 0 {
				d, err := parseDur(strings.TrimSuffix(strings.TrimSpace(line[i+4:]), " total"))
				if err != nil {
					return cpuShares{}, err
				}
				total = d
			}
		case !header && len(f) == 5 && f[0] == "flat":
			header = true
		case header && len(f) >= 6:
			// The file may be followed by " (inline)".
			d, err := parseDur(f[0])
			if err != nil {
				return cpuShares{}, err
			}
			flat[moduleOf(f[5])] += d
			sum += d
		}
	}
	if !header || total <= 0 {
		return cpuShares{}, fmt.Errorf("pprof output has no samples")
	}
	if diff := (sum - total).Seconds(); diff > 0.01*total.Seconds() || diff < -0.01*total.Seconds() {
		return cpuShares{}, fmt.Errorf("pprof rows sum to %v, total is %v", sum, total)
	}
	s := cpuShares{Share: make(map[string]float64, len(modules)), Total: total}
	for _, m := range modules {
		s.Share[m] = 100 * flat[m].Seconds() / sum.Seconds()
	}
	return s, nil
}

// parseDur reads a pprof time such as "1.20s", "10ms" or "0".
func parseDur(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("pprof time %q: %w", s, err)
	}
	return d, nil
}
