// Package simbench holds the engine micro-benchmark bodies in one
// place, shared by `go test -bench` (this package and the repository
// root) and by perfbench's probe, so every harness measures the same
// loops. It is a separate package so internal/sim itself never imports
// testing. The loops that must not allocate also have op constructors
// (NewScheduleFireDepth64, NewSpreadDepth512, NewRTOChurn), which the
// package's tests run under testing.AllocsPerRun.
//
// Reference point: the seed engine (heap-allocated events through
// container/heap) measured ~81 ns and 1 alloc per schedule→fire on the
// reference builder; the pooled core's contract is 0 allocs/op and at
// least 2× the events/sec.
package simbench

import (
	"testing"

	"cdna/internal/sim"
)

// ScheduleFire is the canonical hot loop: schedule one event with a
// pre-bound callback, fire it, recycle it.
func ScheduleFire(b *testing.B) {
	e := sim.New()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(10, fn)
		e.Step()
	}
}

// ScheduleFireClosure is the same loop with a fresh capturing closure
// per event — the pattern the model layers used before the
// zero-allocation refactor — kept as the comparison row.
func ScheduleFireClosure(b *testing.B) {
	e := sim.New()
	n := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(10, func() { n += i })
		e.Step()
	}
}

// ScheduleFireDepth64 exercises the queue at a realistic standing depth
// (a loaded machine keeps tens of events queued).
func ScheduleFireDepth64(b *testing.B) { run(b, NewScheduleFireDepth64()) }

// NewScheduleFireDepth64 queues 64 standing events and returns one op:
// schedule an event ahead of them and fire it.
func NewScheduleFireDepth64() func() {
	e := sim.New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(sim.Time(1000+i), fn)
	}
	return func() {
		e.After(10, fn)
		e.Step()
	}
}

// SpreadDepth512 holds the queue at a deep standing population spread
// over the band the model's packet-scale costs fall in: NIC processing,
// DMA, wire and switch delays of 1–100 µs, the range a wheel level must
// span for those events to skip the cascade.
func SpreadDepth512(b *testing.B) { run(b, NewSpreadDepth512()) }

// NewSpreadDepth512 queues 512 events at delays drawn uniformly from
// 1–100 µs and returns one op: fire the earliest and schedule its
// replacement at a fresh delay, so the depth stays 512.
func NewSpreadDepth512() func() {
	e := sim.New()
	rng := sim.NewRNG(1)
	fn := func() {}
	delay := func() sim.Time {
		return sim.Microsecond + sim.Time(rng.Intn(int(99*sim.Microsecond)+1))
	}
	for i := 0; i < 512; i++ {
		e.After(delay(), fn)
	}
	return func() {
		e.Step()
		e.After(delay(), fn)
	}
}

// TimerRearm measures the re-arm-in-place path used by coalescers,
// retransmit timers, and periodic ticks.
func TimerRearm(b *testing.B) {
	e := sim.New()
	var tm *sim.Timer
	tm = e.NewTimer("tick", func() { tm.ArmAfter(10) })
	tm.ArmAfter(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// RTOChurn is the retransmit-timeout pattern that dominates transport
// timer traffic: per-connection long-range timers re-armed ~200 ms into
// the future on every acknowledgement and (almost) never firing. 16
// connections keep a realistic standing population queued; each op
// re-keys a timer far from the clock — a deep sift for the heap, an
// O(1) radix re-file for the wheel.
func RTOChurn(b *testing.B) { run(b, NewRTOChurn()) }

// NewRTOChurn arms the 16 connections' timers and returns one op: fire
// the next acknowledgement, which re-arms its connection's timeout.
func NewRTOChurn() func() {
	e := sim.New()
	const conns = 16
	for i := 0; i < conns; i++ {
		rto := e.NewTimer("rto", func() {})
		var ack *sim.Timer
		jitter := sim.Time(i) * sim.Microsecond / 4
		ack = e.NewTimer("ack", func() {
			rto.ArmAfter(200*sim.Millisecond + jitter)
			ack.ArmAfter(10*sim.Microsecond + jitter)
		})
		ack.ArmAfter(10*sim.Microsecond + jitter)
	}
	return func() { e.Step() }
}

// run times op b.N times, reporting allocations.
func run(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
