package sim

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// --- Oracle replay: the timing wheel must replay any schedule / fire /
// batch-drain / cancel / re-arm sequence, counter- and key-sequenced,
// in exactly the order a plain sorted slice produces. This is the proof
// behind the engine's determinism contract: (at, seq) order is exact at
// every wheel tick. ---

// sortedQueue is the reference queue: the pending events in a slice
// kept sorted by (at, seq), with its own comparison so a wheel ordering
// bug cannot hide behind a shared helper.
type sortedQueue struct{ evs []*Event }

func (o *sortedQueue) push(ev *Event) {
	i := sort.Search(len(o.evs), func(i int) bool {
		x := o.evs[i]
		return x.at > ev.at || (x.at == ev.at && x.seq > ev.seq)
	})
	o.evs = slices.Insert(o.evs, i, ev)
}

func (o *sortedQueue) remove(ev *Event) {
	i := slices.Index(o.evs, ev)
	o.evs = slices.Delete(o.evs, i, i+1)
}

func (o *sortedQueue) peek() *Event {
	if len(o.evs) == 0 {
		return nil
	}
	return o.evs[0]
}

// popAt removes and returns the minimum event if it fires exactly at t.
func (o *sortedQueue) popAt(t Time) *Event {
	ev := o.peek()
	if ev == nil || ev.at != t {
		return nil
	}
	o.evs = o.evs[1:]
	return ev
}

// opSource supplies the op stream's choices, each in [0, n): an RNG
// for the randomized test, a byteSource for the fuzz target.
type opSource interface{ Intn(n int) int }

// byteSource decodes choices from a fuzz input, one byte per 8 bits of
// range; an exhausted input draws zeros.
type byteSource struct{ b []byte }

func (s *byteSource) Intn(n int) int {
	v := 0
	for m := n - 1; m > 0; m >>= 8 {
		v <<= 8
		if len(s.b) > 0 {
			v |= int(s.b[0])
			s.b = s.b[1:]
		}
	}
	return v % n
}

// oracleRun drives one wheel and the sorted-slice oracle through the
// same op stream, failing on the first divergence in pop order, popped
// keys or queue length. The same *Event is queued in both: the wheel
// owns its link fields, the oracle reads only (at, seq).
type oracleRun struct {
	t       testing.TB
	src     opSource
	w       wheelSched
	o       sortedQueue
	horizon Time // the wheel's horizon in nanoseconds
	now     Time
	seq     uint64
	keys    uint64
	fired   int
}

func newOracleRun(t testing.TB, gshift uint, src opSource) *oracleRun {
	r := &oracleRun{t: t, src: src, horizon: Time(1) << (horizonBits + gshift)}
	r.w.init(gshift)
	return r
}

// delay spans the current slot, the level-0 bitmap words, every wheel
// level, and the overflow list beyond the horizon. Ranges are whole
// level spans (in ticks, scaled by the granularity), so every tick size
// reaches every level.
func (r *oracleRun) delay() Time {
	span := func(ticks Time) int { return int(ticks << r.w.gshift) }
	switch r.src.Intn(10) {
	case 0:
		return 0 // same timestamp as now
	case 1, 2, 3:
		return Time(r.src.Intn(span(3 * 64))) // level 0, across bitmap words
	case 4, 5:
		return Time(r.src.Intn(span(wheel0Slots * wheelSlots * wheelSlots))) // levels 0-2
	case 6, 7:
		return Time(r.src.Intn(span(wheel0Slots << (3 * wheelBits)))) // levels 3-4
	case 8:
		return Time(r.src.Intn(int(r.horizon))) // anywhere in the wheel
	default:
		return r.horizon + Time(r.src.Intn(int(r.horizon))) // overflow
	}
}

// key returns a fresh sequence: the engine counter, or — like
// AtFnKeyed and Timer.ArmKeyed — a SeqBand key that is unique but
// unordered against the keys issued before it.
func (r *oracleRun) key(keyed bool) uint64 {
	if keyed {
		r.keys++
		return SeqBand | uint64(r.src.Intn(1<<16))<<32 | r.keys
	}
	r.seq++
	return r.seq
}

// pop fires the minimum event from both queues; with batch set it then
// drains every remaining same-timestamp event through popAt, the way
// Engine.Run dispatches. It reports whether anything fired.
func (r *oracleRun) pop(op string, batch bool) bool {
	want, got := r.o.peek(), r.w.peek()
	if want != got {
		r.t.Fatalf("%s after %d fired: wheel min %s, oracle min %s", op, r.fired, desc(got), desc(want))
	}
	if want == nil {
		return false
	}
	r.o.popAt(want.at)
	r.w.pop(got)
	r.now = got.at
	r.fired++
	for batch {
		want, got := r.o.popAt(r.now), r.w.popAt(r.now)
		if want != got {
			r.t.Fatalf("popAt(%d) after %d fired: wheel %s, oracle %s", r.now, r.fired, desc(got), desc(want))
		}
		if got == nil {
			break
		}
		r.fired++
	}
	return true
}

func desc(ev *Event) string {
	if ev == nil {
		return "<empty>"
	}
	return fmt.Sprintf("(%d, %#x)", ev.at, ev.seq)
}

// step applies one op from the stream.
func (r *oracleRun) step() {
	switch r.src.Intn(10) {
	case 0, 1, 2: // schedule
		ev := &Event{at: r.now + r.delay(), index: -1}
		ev.seq = r.key(false)
		r.w.push(ev)
		r.o.push(ev)
	case 3: // schedule keyed
		ev := &Event{at: r.now + r.delay(), index: -1}
		ev.seq = r.key(true)
		r.w.push(ev)
		r.o.push(ev)
	case 4, 5: // fire
		r.pop("pop", false)
	case 6: // fire + same-timestamp batch drain
		r.pop("pop", true)
	case 7: // cancel
		if n := len(r.o.evs); n > 0 {
			ev := r.o.evs[r.src.Intn(n)]
			r.o.remove(ev)
			r.w.remove(ev)
			if ev.index != -1 {
				r.t.Fatalf("cancelled event still indexed at %d", ev.index)
			}
		}
	case 8, 9: // timer re-arm: new (at, seq) re-keyed in place
		if n := len(r.o.evs); n > 0 {
			ev := r.o.evs[r.src.Intn(n)]
			r.o.remove(ev)
			ev.at = r.now + r.delay()
			ev.seq = r.key(r.src.Intn(4) == 0)
			r.o.push(ev)
			r.w.reschedule(ev)
		}
	}
	if r.w.len() != len(r.o.evs) {
		r.t.Fatalf("len: wheel %d, oracle %d", r.w.len(), len(r.o.evs))
	}
}

// drain fires everything left; the full remaining order must agree.
func (r *oracleRun) drain() {
	for r.pop("drain", r.src.Intn(2) == 0) {
	}
	if r.w.len() != 0 {
		r.t.Fatalf("wheel not empty after drain: %d", r.w.len())
	}
}

func TestSchedulerDifferential(t *testing.T) {
	for _, gshift := range []uint{0, tickShift, 12} {
		t.Run(fmt.Sprintf("gshift=%d", gshift), func(t *testing.T) {
			r := newOracleRun(t, gshift, NewRNG(20260729+uint64(gshift)))
			for i := 0; i < 20000; i++ {
				r.step()
			}
			r.drain()
		})
	}
}

// FuzzWheelOracle decodes an input into the same op stream: the first
// byte picks the tick, the rest feed the op choices.
func FuzzWheelOracle(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 0, 4, 6, 0, 1, 2, 3, 7, 0, 8, 1, 9})
	f.Add([]byte{2, 3, 9, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 6, 6, 6, 8, 0, 1, 4, 4, 4})
	f.Add([]byte("\x01schedule, fire, cancel and re-arm across every wheel level"))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		gshift := []uint{0, tickShift, 12}[int(in[0])%3]
		src := &byteSource{b: in[1:]}
		r := newOracleRun(t, gshift, src)
		// The step cap keeps the clock far from int64 overflow even if
		// every step fires an event beyond the horizon.
		for i := 0; i < 4096 && len(src.b) > 0; i++ {
			r.step()
		}
		r.drain()
	})
}

// --- Wheel edge cases through the public Engine API. Times are whole
// ticks (tick ns each), so boundaries sit exactly on wheel digits. ---

const tick = Time(1) << tickShift

// TestWheelCascadeBoundary schedules events exactly at the wheel's
// digit edges and one tick either side: a level-0 bitmap word edge
// (64 ticks), the level 0→1 rollover (wheel0Slots ticks), level 1→2
// and level 2→3. These are the points where an event's occupancy word,
// wheel level or slot digit changes, and where a mis-derived level
// would file it into a stale slot.
func TestWheelCascadeBoundary(t *testing.T) {
	boundaries := []Time{
		64 * tick,                       // level-0 bitmap word edge
		wheel0Slots * tick,              // level 0→1 rollover
		wheel0Slots * wheelSlots * tick, // level 1→2
		wheel0Slots * wheelSlots * wheelSlots * tick, // level 2→3
	}
	e := New()
	var want []Time
	for _, b := range boundaries {
		for _, at := range []Time{b - tick, b - 1, b, b + 1, b + tick} {
			want = append(want, at)
		}
	}
	var got []Time
	for _, at := range want {
		e.At(at, func() { got = append(got, e.Now()) })
	}
	// The same edges again, relative to a clock that has moved off
	// zero: an event one tick past a rollover of the current epoch
	// differs from cur in a higher digit than its distance suggests.
	base := boundaries[len(boundaries)-1] * 2
	e.Run(base)
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	got, want = got[:0], want[:0]
	for _, b := range boundaries {
		for _, at := range []Time{b - tick, b, b + tick} {
			want = append(want, base+at)
		}
	}
	for _, at := range want {
		e.At(at, func() { got = append(got, e.Now()) })
	}
	e.Run(base * 2)
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestWheelFarFutureOverflow exercises the overflow list: events beyond
// the wheel horizon (2^horizonBits ticks, the same ~2199 s as the
// six-level 64-slot wheel) in two different epochs, interleaved with
// near events. The far events must re-file into the wheel when the
// clock crosses into their epoch and still fire in exact order.
func TestWheelFarFutureOverflow(t *testing.T) {
	const horizon = tick << horizonBits
	if horizon != tick<<36 {
		t.Fatalf("horizon = %v ticks, want 2^36", horizon/tick)
	}
	e := New()
	ats := []Time{
		Second,             // in-wheel
		horizon - tick,     // last tick inside the horizon
		horizon,            // first tick of the first overflow epoch
		horizon + Second,   // first overflow epoch
		2*horizon + Second, // second overflow epoch
		2*horizon + Second + 1,
	}
	var got []Time
	for _, at := range ats {
		tm := e.NewTimer("far", func() { got = append(got, e.Now()) })
		tm.Arm(at)
		if wantOver := at >= horizon; (tm.ev.index == overflowIdx) != wantOver {
			t.Fatalf("event at %v filed at index %d; overflow want %v", at, tm.ev.index, wantOver)
		}
	}
	// A near chain keeps the wheel busy while the far events wait.
	count := 0
	var next func()
	next = func() {
		count++
		if count < 100 {
			e.After(10*Millisecond, next)
		}
	}
	e.After(10*Millisecond, next)
	e.Run(3 * horizon)
	if !slices.Equal(got, ats) {
		t.Fatalf("far firings %v, want %v", got, ats)
	}
	if count != 100 {
		t.Fatalf("near chain fired %d, want 100", count)
	}
}

// TestWheelFootprint bounds the wheel's size per engine: 4096 one-tick
// slots stay affordable only because a slot is a 16-byte {head, tail}
// pair, not a sentinel Event.
func TestWheelFootprint(t *testing.T) {
	if n := unsafe.Sizeof(wheelSched{}); n > 80<<10 {
		t.Fatalf("wheelSched is %d bytes, want <= 80 KiB", n)
	}
}

// TestWheelCancelAfterCascade stops a timer whose event has been
// cascaded out of its original upper-level slot but has not fired: the
// event's recorded position must track it through relocation, and the
// re-armed timer must file afresh and fire once.
func TestWheelCancelAfterCascade(t *testing.T) {
	e := New()
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	// Ticks L+70, L+100 and L+101 (L = wheel0Slots) share level-1 slot
	// 1 (all have digit 1 at level 1 from time 0). Firing L+70 advances
	// the clock into the slot and cascades the other two to level 0.
	const l = wheel0Slots * tick
	e.At(l+70*tick, rec)
	stopped := true
	tm := e.NewTimer("b", func() {
		if stopped {
			t.Fatal("stopped timer fired")
		}
		rec()
	})
	tm.Arm(l + 100*tick)
	if tm.ev.index != wheel0Slots+1 {
		t.Fatalf("timer filed at index %d, want level-1 slot 1", tm.ev.index)
	}
	e.At(l+101*tick, rec)
	e.Run(l + 71*tick) // fire L+70 only; the other two have cascaded
	if !tm.Armed() || tm.ev.index >= wheel0Slots {
		t.Fatalf("cascaded timer: Armed=%v index=%d, want level 0", tm.Armed(), tm.ev.index)
	}
	tm.Stop()
	if tm.Armed() || e.Pending() != 1 {
		t.Fatalf("after stop: Armed=%v Pending=%d", tm.Armed(), e.Pending())
	}
	stopped = false
	tm.Arm(l + 200*tick)
	e.Run(Second)
	if want := []Time{l + 70*tick, l + 101*tick, l + 200*tick}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestWheelTimerRearmCurrentSlot re-arms a timer to the current
// timestamp from inside a callback: the re-arm lands in the slot the
// engine is draining right now, and must fire in this batch, after the
// events already queued at the same instant (fresh sequence number).
func TestWheelTimerRearmCurrentSlot(t *testing.T) {
	e := New()
	var order []string
	var tm *Timer
	rearmed := false
	tm = e.NewTimer("tm", func() {
		order = append(order, "timer")
		if !rearmed {
			rearmed = true
			tm.Arm(e.Now()) // same timestamp, same slot, mid-drain
		}
	})
	e.At(50, func() { order = append(order, "first") })
	tm.Arm(50)
	e.At(50, func() { order = append(order, "after") })
	e.Run(100)
	if want := []string{"first", "timer", "after", "timer"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if e.Now() != 100 || e.Pending() != 0 {
		t.Fatalf("now=%v pending=%d", e.Now(), e.Pending())
	}
}

// TestWheelCoarseGranularityOrder verifies that a coarse wheel tick
// (many distinct timestamps per slot) cannot perturb ordering: same-slot
// events with different timestamps fire at their own times in exact
// (time, sequence) order.
func TestWheelCoarseGranularityOrder(t *testing.T) {
	e := &Engine{}
	e.q.init(12) // 4096 ns per level-0 slot
	rng := NewRNG(99)
	var got []Time
	for i := 0; i < 500; i++ {
		e.At(Time(rng.Intn(3_000_000)), func() { got = append(got, e.Now()) })
	}
	e.Run(4 * Millisecond)
	if len(got) != 500 {
		t.Fatalf("fired %d, want 500", len(got))
	}
	if !slices.IsSorted(got) {
		t.Fatalf("fired out of order: %v", got)
	}
}

// TestEngineSameTimestampBatchWithInsertions: callbacks scheduling new
// events at the executing timestamp take part in the same-timestamp
// batch drain, in sequence order, including across Step/Run styles.
func TestEngineSameTimestampBatchWithInsertions(t *testing.T) {
	e := New()
	var order []int
	e.At(10, func() {
		order = append(order, 1)
		e.At(10, func() { order = append(order, 3) })
	})
	e.At(10, func() { order = append(order, 2) })
	e.At(20, func() { order = append(order, 4) })
	e.Run(100)
	if want := []int{1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}
