package sim

// tickShift is log2 of the wheel tick in nanoseconds: every engine's
// wheel buckets time into 32 ns ticks. The tick is purely a performance
// choice and never affects simulated results, because same-slot events
// still fire in exact (time, sequence) order. With level 0's 4096
// one-tick slots it sets the window events are filed in without a
// cascade: 131 µs, the scale of the 1–100 µs NIC, DMA, wire and switch
// delays; the 2^36-tick horizon is about 2199 s. A coarser tick also
// shortens the radix distance long-range timers (retransmit timeouts,
// coalescer delays) travel through the levels, a finer one keeps fewer
// distinct timestamps per level-0 slot. 32 ns sits just under the
// calibration's finest recurring cost quantum (45 ns). The tick has not
// been re-measured against other sizes on the 4096-slot level 0.
const tickShift = 5

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
