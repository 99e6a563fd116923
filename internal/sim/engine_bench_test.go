package sim_test

// The engine micro-benchmarks. Bodies live in internal/sim/simbench
// (shared with perfbench's probe and the repository-root bench) so
// every harness measures exactly these loops. External test package to
// avoid the sim → simbench → sim cycle.

import (
	"testing"

	"cdna/internal/sim/simbench"
)

func BenchmarkEngineScheduleFire(b *testing.B)        { simbench.ScheduleFire(b) }
func BenchmarkEngineScheduleFireClosure(b *testing.B) { simbench.ScheduleFireClosure(b) }
func BenchmarkEngineScheduleFireDepth64(b *testing.B) { simbench.ScheduleFireDepth64(b) }
func BenchmarkTimerRearm(b *testing.B)                { simbench.TimerRearm(b) }
func BenchmarkEngineCancel(b *testing.B)              { simbench.Cancel(b) }
func BenchmarkEngineCancelHeavy(b *testing.B)         { simbench.CancelHeavy(b) }
func BenchmarkEngineRTOChurn(b *testing.B)            { simbench.RTOChurn(b) }
