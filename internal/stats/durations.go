package stats

import (
	"math/bits"
	"slices"

	"cdna/internal/sim"
)

// Block geometry of Durations: the first block holds firstBlock samples
// and each later one twice the one before, up to maxBlock. Starting
// small keeps a connection that sees a few segments at a few hundred
// bytes; the cap bounds what the newest block leaves unused at
// 4·maxBlock bytes (32 KiB) however many samples a store holds.
const (
	firstBlock = 64
	maxShift   = 7
	maxBlock   = firstBlock << maxShift
)

// Durations collects duration samples, such as latencies, and reports
// their quantiles. Each sample is kept exactly as a count of
// nanoseconds: one below 2³² ns (about 4.3 s) takes four bytes in
// append-only blocks that are never copied, and a longer one is kept
// whole in a separate list. The zero value is empty and ready to use.
type Durations struct {
	blocks [][]uint32 // every block allocated so far, each at full length
	next   int        // blocks[:next] are in use; blocks[next-1] is filling
	tail   []uint32   // the samples in blocks[next-1]
	wide   []sim.Time // samples of 2³² ns or more
}

// Observe records one duration. A negative duration can only come from
// a bug in the caller's clock arithmetic, and panics.
func (d *Durations) Observe(t sim.Time) {
	if t>>32 != 0 {
		if t < 0 {
			panic("stats: negative duration")
		}
		d.wide = append(d.wide, t)
		return
	}
	if len(d.tail) == cap(d.tail) {
		d.nextBlock()
	}
	d.tail = append(d.tail, uint32(t))
}

// nextBlock starts filling the next block, allocating it on first use.
func (d *Durations) nextBlock() {
	if d.next == len(d.blocks) {
		d.blocks = append(d.blocks, make([]uint32, firstBlock<<min(d.next, maxShift)))
	}
	d.tail = d.blocks[d.next][:0]
	d.next++
}

// full returns the blocks in use before the one filling.
func (d *Durations) full() [][]uint32 { return d.blocks[:max(d.next-1, 0)] }

// Count returns the number of samples.
func (d *Durations) Count() int {
	n := len(d.tail) + len(d.wide)
	for _, b := range d.full() {
		n += len(b)
	}
	return n
}

// Reset discards all samples but keeps every block, so observing as
// many samples again allocates nothing — the analogue of
// Counter.StartWindow, so warmup samples can be excluded from reported
// quantiles.
func (d *Durations) Reset() {
	d.next, d.tail, d.wide = 0, nil, d.wide[:0]
}

// Quantiles returns the qs-quantiles (0 ≤ q ≤ 1) in microseconds: the
// sample at index ⌊q·(n−1)⌋ in sorted order, as float64(ns)/1000. That
// conversion never reverses the order of two samples, so picking the
// order statistic among the integers and converting it gives the same
// float as converting every sample first and picking among the floats.
// With no samples every quantile is 0.
func (d *Durations) Quantiles(qs ...float64) []float64 {
	var s Selector
	out := make([]float64, len(qs))
	for i, ns := range s.Nanos(d, qs...) {
		out[i] = float64(ns) / 1000
	}
	return out
}

// Selector picks order statistics out of Durations in one scratch
// buffer that it keeps between calls, so reading many stores in turn
// allocates only for the largest. The zero value is ready to use.
type Selector struct{ buf []uint32 }

// Nanos returns the qs-quantiles of d in nanoseconds, each the sample
// Quantiles would convert. It selects those order statistics instead of
// sorting: about n work per distinct rank rather than n log n. It sorts
// d's samples of 2³² ns or more in place; d holds the same samples
// afterwards.
func (s *Selector) Nanos(d *Durations, qs ...float64) []sim.Time {
	out := make([]sim.Time, len(qs))
	n := d.Count()
	if n == 0 {
		return out
	}
	a := slices.Grow(s.buf[:0], n-len(d.wide))
	for _, b := range d.full() {
		a = append(a, b...)
	}
	a = append(a, d.tail...)
	s.buf = a
	// Every wide sample exceeds every narrow one: in sorted order the
	// narrow samples come first, then the wide ones.
	slices.Sort(d.wide)
	lo := 0
	for i, q := range qs {
		k := min(max(int(q*float64(n-1)), 0), n-1)
		if k >= len(a) {
			out[i] = d.wide[k-len(a)]
			continue
		}
		// Selecting k left a[k] final and nothing smaller after it, so
		// a later rank at or above it searches only from there.
		if k < lo {
			lo = 0
		}
		selectKth(a[lo:], k-lo)
		lo = k
		out[i] = sim.Time(a[k])
	}
	return out
}

// selectKth reorders a so that a[k] is the value sorting a would put
// there, with no greater value before it and no smaller one after it.
// It narrows a median-of-three three-way partition (equal keys end a
// round at once, so heavy ties stay linear) and sorts what is left once
// the range is small or the rounds exceed twice log2 of the length.
func selectKth(a []uint32, k int) {
	lo, hi := 0, len(a)
	for rounds := 2 * bits.Len(uint(hi)); hi-lo > 16 && rounds > 0; rounds-- {
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi-1]
		p := max(min(x, y), min(max(x, y), z)) // median of three
		// Partition into [lo, lt) < p, [lt, gt) == p, [gt, hi) > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < p:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > p:
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return // a[k] == p, in its place
		}
	}
	slices.Sort(a[lo:hi])
}
