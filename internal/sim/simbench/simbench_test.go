package simbench

import "testing"

// Standard-runner wrappers so `go test -bench` can drive the shared
// benchmark bodies directly (cdnabench runs the same functions through
// testing.Benchmark): `go test -bench . ./internal/sim/simbench/`.

func BenchmarkScheduleFire(b *testing.B)        { ScheduleFire(b) }
func BenchmarkScheduleFireClosure(b *testing.B) { ScheduleFireClosure(b) }
func BenchmarkScheduleFireDepth64(b *testing.B) { ScheduleFireDepth64(b) }
func BenchmarkTimerRearm(b *testing.B)          { TimerRearm(b) }
func BenchmarkCancel(b *testing.B)              { Cancel(b) }
func BenchmarkCancelHeavy(b *testing.B)         { CancelHeavy(b) }
func BenchmarkRTOChurn(b *testing.B)            { RTOChurn(b) }
