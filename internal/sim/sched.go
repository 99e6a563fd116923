package sim

// tickShift is log2 of the wheel tick in nanoseconds: every engine's
// wheel buckets time into 32 ns ticks. The tick is purely a performance
// choice — a coarser tick shortens the radix distance long-range timers
// (retransmit timeouts, coalescer delays) travel through the levels, a
// finer one keeps fewer distinct timestamps per level-0 slot — and never
// affects simulated results, because same-slot events still fire in
// exact (time, sequence) order. 32 ns sits just under the calibration's
// finest recurring cost quantum (45 ns); a 1 ns or a 256 ns tick ran
// the 16-host rack benchmark no faster (4-8% slower in median).
const tickShift = 5

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
