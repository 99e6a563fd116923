package campaign

import (
	"errors"
	"testing"
	"time"

	"cdna/internal/bench"
)

// wedge is an executor whose victim configuration hangs forever — the
// deliberately wedged Runner of the watchdog contract. Non-victim
// configurations return immediately.
func wedge(victimGuests int) func(bench.Config) bench.Outcome {
	return func(cfg bench.Config) bench.Outcome {
		if cfg.Guests == victimGuests {
			select {} // wedged: never returns
		}
		return bench.Outcome{Config: cfg}
	}
}

func watchdogGrid() []bench.Config {
	var cfgs []bench.Config
	for _, g := range []int{1, 2, 7, 4} {
		cfg := bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx)
		cfg.Guests = g
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestWatchdogReleasesWorker: a hung experiment must be marked failed
// with ErrTimeout at the deadline and its worker released — the rest of
// the pool's experiments all complete. Without the watchdog this test
// would deadlock (and time out the suite).
func TestWatchdogReleasesWorker(t *testing.T) {
	cfgs := watchdogGrid() // guests 1, 2, 7(victim), 4
	done := make(chan []bench.Outcome, 1)
	go func() {
		done <- Run(cfgs, Options{
			Workers: 2,
			Timeout: 50 * time.Millisecond,
			Exec:    wedge(7),
		})
	}()
	var outs []bench.Outcome
	select {
	case outs = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog did not release the wedged worker")
	}
	for i, out := range outs {
		if cfgs[i].Guests == 7 {
			if !errors.Is(out.Err, ErrTimeout) {
				t.Fatalf("wedged experiment err = %v; want ErrTimeout", out.Err)
			}
			continue
		}
		if out.Err != nil {
			t.Fatalf("experiment %d failed: %v", i, out.Err)
		}
	}
}

// The sequential path (workers <= 1) runs the same watchdog: a single
// wedged point cannot stall a one-worker sweep.
func TestWatchdogSequential(t *testing.T) {
	cfgs := watchdogGrid()
	outs := Run(cfgs, Options{
		Workers: 1,
		Timeout: 50 * time.Millisecond,
		Exec:    wedge(7),
	})
	timeouts := 0
	for _, out := range outs {
		if errors.Is(out.Err, ErrTimeout) {
			timeouts++
		} else if out.Err != nil {
			t.Fatalf("unexpected error: %v", out.Err)
		}
	}
	if timeouts != 1 {
		t.Fatalf("got %d timeouts; want exactly 1", timeouts)
	}
}

// TestWatchdogDisabled: a zero timeout must not wrap the executor in a
// goroutine at all — outcomes flow through untouched.
func TestWatchdogDisabled(t *testing.T) {
	cfgs := watchdogGrid()[:2]
	outs := Run(cfgs, Options{Workers: 1, Exec: func(cfg bench.Config) bench.Outcome {
		return bench.Outcome{Config: cfg}
	}})
	for _, out := range outs {
		if out.Err != nil {
			t.Fatalf("unexpected error: %v", out.Err)
		}
	}
}
