package sim

import (
	"fmt"
	"slices"
	"sort"
	"testing"
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
	r := &oracleRun{t: t, src: src, horizon: Time(1) << (wheelBits*wheelLevels + gshift)}
	r.w.init(gshift)
	return r
}

// delay spans the current slot, every wheel level, and the overflow
// list beyond the horizon.
func (r *oracleRun) delay() Time {
	switch r.src.Intn(10) {
	case 0:
		return 0 // same timestamp as now
	case 1, 2, 3:
		return Time(r.src.Intn(100)) // level 0 neighbourhood
	case 4, 5:
		return Time(r.src.Intn(100_000)) // levels 1-2
	case 6, 7:
		return Time(r.src.Intn(50_000_000)) // levels 3-4
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

// TestWheelCascadeBoundary schedules events exactly at level rollovers
// (64^l ticks) and one tick either side: the points where an event's
// wheel level and slot digits change, and where a mis-derived level
// would file it into a stale slot.
func TestWheelCascadeBoundary(t *testing.T) {
	boundaries := []Time{
		wheelSlots * tick,                           // level 0→1 rollover
		wheelSlots * wheelSlots * tick,              // level 1→2
		wheelSlots * wheelSlots * wheelSlots * tick, // level 2→3
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
		e.At(at, "edge", func() { got = append(got, e.Now()) })
	}
	e.Run(boundaries[len(boundaries)-1] * 2)
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestWheelFarFutureOverflow exercises the overflow list: events beyond
// the wheel horizon (64^6 ticks) in two different top-level epochs,
// interleaved with near events. The far events must re-file into the
// wheel when the clock crosses into their epoch and still fire in exact
// order.
func TestWheelFarFutureOverflow(t *testing.T) {
	e := New()
	const horizon = tick << (wheelBits * wheelLevels)
	ats := []Time{
		Second,             // in-wheel
		horizon + Second,   // first overflow epoch
		2*horizon + Second, // second overflow epoch
		2*horizon + Second + 1,
	}
	var got []Time
	for _, at := range ats {
		e.At(at, "far", func() { got = append(got, e.Now()) })
	}
	// A near chain keeps the wheel busy while the far events wait.
	count := 0
	var next func()
	next = func() {
		count++
		if count < 100 {
			e.After(10*Millisecond, "tick", next)
		}
	}
	e.After(10*Millisecond, "tick", next)
	e.Run(3 * horizon)
	if !slices.Equal(got, ats) {
		t.Fatalf("far firings %v, want %v", got, ats)
	}
	if count != 100 {
		t.Fatalf("near chain fired %d, want 100", count)
	}
}

// TestWheelCancelAfterCascade cancels an event that has been cascaded
// out of its original higher-level slot but has not fired: the Handle's
// recorded position must track the event through relocation.
func TestWheelCancelAfterCascade(t *testing.T) {
	e := New()
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	// Ticks 70, 100, 101 share level-1 slot 1 (all have digit 1 at
	// level 1 from time 0). Firing 70 advances the clock into the slot
	// and cascades 100 and 101 down to level 0.
	e.At(70*tick, "a", rec)
	h := e.At(100*tick, "b", func() { t.Fatal("cancelled event fired") })
	e.At(101*tick, "c", rec)
	e.Run(71 * tick) // fire 70 only; 100 and 101 have cascaded
	if !h.Scheduled() {
		t.Fatal("cascaded event lost its scheduled state")
	}
	h.Cancel()
	if h.Scheduled() || e.Pending() != 1 {
		t.Fatalf("after cancel: Scheduled=%v Pending=%d", h.Scheduled(), e.Pending())
	}
	e.Run(Second)
	if want := []Time{70 * tick, 101 * tick}; !slices.Equal(got, want) {
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
	e.At(50, "first", func() { order = append(order, "first") })
	tm.Arm(50)
	e.At(50, "after-timer", func() { order = append(order, "after") })
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
		e.At(Time(rng.Intn(3_000_000)), "ev", func() { got = append(got, e.Now()) })
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
	e.At(10, "a", func() {
		order = append(order, 1)
		e.At(10, "c", func() { order = append(order, 3) })
	})
	e.At(10, "b", func() { order = append(order, 2) })
	e.At(20, "d", func() { order = append(order, 4) })
	e.Run(100)
	if want := []int{1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}
