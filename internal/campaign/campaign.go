// Package campaign runs experiment campaigns: whole grids of
// independent bench configurations fanned out across a worker pool.
//
// Every experiment owns a private single-goroutine sim.Engine with an
// explicitly seeded RNG and no shared mutable state, so a campaign is
// embarrassingly parallel and — crucially — deterministic: the same
// grid produces byte-identical per-config results whether it runs on
// one worker or on every core (campaign_test.go enforces this). One
// failing configuration is captured in its Outcome instead of aborting
// the sweep.
//
// The package is the engine behind cmd/cdnasweep (grid in, JSON/CSV
// out) and supplies the parallel bench.Runner that cmd/cdnatables
// injects to regenerate the paper's tables concurrently. cache.go
// supplies a store-backed executor (Options.Exec), and Options.Timeout
// puts a watchdog deadline on every experiment.
package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cdna/internal/bench"
)

// ErrTimeout marks an experiment killed by the per-experiment watchdog:
// it ran past Options.Timeout and its worker was released. Wrapped in
// the outcome's Err; test with errors.Is.
var ErrTimeout = errors.New("campaign: experiment exceeded watchdog deadline")

// Options controls campaign execution.
type Options struct {
	// Workers is the number of concurrent experiments; <= 0 means
	// GOMAXPROCS.
	Workers int

	// Timeout is the per-experiment watchdog deadline. A positive value
	// bounds every experiment's wall clock: an experiment still running
	// at the deadline is marked failed with ErrTimeout and its worker
	// moves on, so one wedged configuration cannot block the pool
	// forever. The wedged goroutine itself is abandoned (goroutines
	// cannot be killed); the cost of a leak is bounded by the number of
	// hangs, where the cost of no watchdog is an unbounded stall.
	// Zero disables the watchdog.
	Timeout time.Duration

	// Exec overrides the per-experiment executor; nil means
	// bench.RunCaptured. The cache layer (CachedExec) and tests inject
	// here. The watchdog wraps whatever executor is configured.
	Exec func(bench.Config) bench.Outcome

	// Progress, when non-nil, is called once per finished experiment
	// with the completion count so far and the experiment's outcome.
	// Calls are serialized; completion order is nondeterministic under
	// parallelism, but outcomes land in input order regardless.
	// Canceled (never-started) experiments do not report.
	Progress func(done, total int, out bench.Outcome)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runOne executes one experiment through the configured executor,
// under the watchdog deadline when one is set.
func (o Options) runOne(cfg bench.Config) bench.Outcome {
	exec := o.Exec
	if exec == nil {
		exec = bench.RunCaptured
	}
	if o.Timeout <= 0 {
		return exec(cfg)
	}
	ch := make(chan bench.Outcome, 1)
	go func() { ch <- exec(cfg) }()
	watchdog := time.NewTimer(o.Timeout)
	defer watchdog.Stop()
	select {
	case out := <-ch:
		return out
	case <-watchdog.C:
		return bench.Outcome{
			Config: cfg,
			Err:    fmt.Errorf("experiment %s ran past %v: %w", cfg.Name(), o.Timeout, ErrTimeout),
		}
	}
}

// Run executes every configuration of the campaign and returns one
// outcome per configuration, in input order. Errors (including panics
// from malformed configurations and watchdog timeouts) are captured per
// experiment; the rest of the sweep always completes.
func Run(cfgs []bench.Config, opt Options) []bench.Outcome {
	outs := make([]bench.Outcome, len(cfgs))
	workers := opt.workers()
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	if workers <= 1 {
		for i, cfg := range cfgs {
			outs[i] = opt.runOne(cfg)
			report(opt, i+1, len(cfgs), outs[i])
		}
		return outs
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out := opt.runOne(cfgs[i])
				outs[i] = out
				mu.Lock()
				done++
				report(opt, done, len(cfgs), out)
				mu.Unlock()
			}
		}()
	}
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return outs
}

func report(opt Options, done, total int, out bench.Outcome) {
	if opt.Progress != nil {
		opt.Progress(done, total, out)
	}
}

// Runner adapts a worker count into a bench.Runner, the injection point
// bench's table generators expose. bench.Table2(opts) with
// opts.Runner = campaign.Runner(0) runs that table's rows across all
// cores.
func Runner(workers int) bench.Runner {
	return func(cfgs []bench.Config) []bench.Outcome {
		return Run(cfgs, Options{Workers: workers})
	}
}

// Errs collects the errors of failed experiments, preserving order.
func Errs(outs []bench.Outcome) []error {
	var errs []error
	for _, out := range outs {
		if out.Err != nil {
			errs = append(errs, out.Err)
		}
	}
	return errs
}
