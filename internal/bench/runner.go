package bench

import (
	"fmt"

	"cdna/internal/sim"
)

// Outcome is the terminal state of one experiment in a batch: its
// configuration and either a result or the error that stopped it.
type Outcome struct {
	Config Config `json:"config"`
	Result Result `json:"result"`
	Err    error  `json:"-"`
}

// Opts is a pair of measurement windows. Quick() is for tests and
// benchmarks; full-length windows are DefaultConfig's own.
type Opts struct {
	Warmup   sim.Time
	Duration sim.Time
}

// Quick returns short windows for tests and benchmarks.
func Quick() Opts { return Opts{Warmup: 150 * sim.Millisecond, Duration: 300 * sim.Millisecond} }

func (o Opts) apply(cfg Config) Config {
	cfg.Warmup = o.Warmup
	cfg.Duration = o.Duration
	return cfg
}

// RunCaptured runs one experiment, converting any panic into an error
// so that a malformed configuration cannot abort a sweep.
func RunCaptured(cfg Config) (out Outcome) {
	out.Config = cfg
	defer capturePanic(&out)
	out.Result, out.Err = Run(cfg)
	return out
}

// RunPrepared is RunCaptured for a machine Prepare already built from
// cfg: the result cache keys a machine and, on a miss, runs that same
// machine, so the key and the result come from one build.
func RunPrepared(cfg Config, m *Machine) (out Outcome) {
	out.Config = cfg
	defer capturePanic(&out)
	out.Result, out.Err = m.run()
	return out
}

func capturePanic(out *Outcome) {
	if r := recover(); r != nil {
		out.Err = fmt.Errorf("bench: experiment %s panicked: %v", out.Config.Name(), r)
	}
}
