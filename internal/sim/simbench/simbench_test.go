package simbench

import "testing"

// Standard-runner wrappers so `go test -bench` can drive the shared
// benchmark bodies directly (perfbench's probe runs the same functions
// through testing.Benchmark): `go test -bench . ./internal/sim/simbench/`.

func BenchmarkScheduleFire(b *testing.B)        { ScheduleFire(b) }
func BenchmarkScheduleFireClosure(b *testing.B) { ScheduleFireClosure(b) }
func BenchmarkScheduleFireDepth64(b *testing.B) { ScheduleFireDepth64(b) }
func BenchmarkTimerRearm(b *testing.B)          { TimerRearm(b) }
func BenchmarkCancel(b *testing.B)              { Cancel(b) }
func BenchmarkCancelHeavy(b *testing.B)         { CancelHeavy(b) }
func BenchmarkRTOChurn(b *testing.B)            { RTOChurn(b) }

// The loaded-queue rows must stay allocation-free once warm (AllocsPerRun
// runs each op once before counting), like the bare schedule→fire,
// cancel and re-arm loops internal/sim gates.
func TestLoadedQueueOpsZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"schedule_fire_depth64", NewScheduleFireDepth64()},
		{"cancel_heavy", NewCancelHeavy()},
		{"rto_churn", NewRTOChurn()},
	} {
		if allocs := testing.AllocsPerRun(1000, c.op); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", c.name, allocs)
		}
	}
}
