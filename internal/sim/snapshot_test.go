package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// snapRig is an engine with a deterministic registry: two bound
// callbacks and one self-re-arming timer, all logging their firings.
// Two rigs built alike have identical registries, which is exactly the
// contract Engine.Restore verifies.
type snapRig struct {
	eng  *Engine
	log  []string
	a, b Fn
	tm   *Timer
}

func newSnapRig() *snapRig {
	r := &snapRig{eng: New()}
	r.a = r.eng.Bind(func() { r.log = append(r.log, fmt.Sprintf("a@%d", r.eng.Now())) })
	r.b = r.eng.Bind(func() { r.log = append(r.log, fmt.Sprintf("b@%d", r.eng.Now())) })
	r.tm = r.eng.NewTimer("tick", func() {
		r.log = append(r.log, fmt.Sprintf("t@%d", r.eng.Now()))
		r.tm.ArmAfter(7)
	})
	return r
}

func TestEngineSnapshotRestoreContinuation(t *testing.T) {
	a := newSnapRig()
	a.tm.Arm(3)
	for i := Time(1); i <= 40; i += 4 {
		a.eng.AtFn(i, "ev.a", a.a)
		a.eng.AtFn(i+1, "ev.b", a.b)
	}
	a.eng.AtFn(12, "ev.none", Fn{}) // nil callback: fires as a no-op
	a.eng.Run(17)

	st, err := a.eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Now != 17 || st.Binds != 2 || st.Timers != 1 {
		t.Fatalf("header fields: %+v", st)
	}
	if st.Fired != a.eng.Fired() || len(st.Events) != a.eng.Pending() {
		t.Fatalf("counters: %+v vs fired %d pending %d", st, a.eng.Fired(), a.eng.Pending())
	}
	if !sort.SliceIsSorted(st.Events, func(i, j int) bool {
		return st.Events[i].At < st.Events[j].At ||
			(st.Events[i].At == st.Events[j].At && st.Events[i].Seq < st.Events[j].Seq)
	}) {
		t.Fatal("snapshot events not sorted by (at, seq)")
	}
	// Same state, same image — regardless of queue-internal layout.
	st2, err := a.eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatal("re-snapshotting an untouched engine changed the image")
	}

	b := newSnapRig()
	// Queue junk into the restoring engine first: Restore must detach
	// and drop it (the pooled event returns to the collector, the armed
	// timer becomes unarmed-until-the-image-says-otherwise).
	b.eng.AtFn(2, "junk", b.b)
	b.tm.Arm(1)
	if err := b.eng.Restore(st); err != nil {
		t.Fatal(err)
	}
	if b.eng.Now() != 17 || b.eng.Fired() != a.eng.Fired() || b.eng.Pending() != a.eng.Pending() {
		t.Fatalf("restored clock/counters: now=%d fired=%d pending=%d",
			b.eng.Now(), b.eng.Fired(), b.eng.Pending())
	}
	if !b.tm.Armed() || b.tm.When() != a.tm.When() {
		t.Fatalf("restored timer: armed=%v when=%d, want when=%d", b.tm.Armed(), b.tm.When(), a.tm.When())
	}

	mark := len(a.log)
	a.eng.Run(100)
	b.eng.Run(100)
	if got, want := b.log, a.log[mark:]; !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed firings %v, want %v", got, want)
	}
	if b.eng.Fired() != a.eng.Fired() || b.eng.Now() != a.eng.Now() {
		t.Fatal("engines diverged after drain")
	}
	// The junk event must never have fired.
	for _, l := range b.log {
		if l[0] == 'b' && l != "b@18" && l[:2] == "b@" {
			break // b-callback firings are legitimate; the junk was at t=2 < 17
		}
	}
}

func TestSnapshotRejectsRawCallback(t *testing.T) {
	e := New()
	e.At(5, "raw", func() {})
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("snapshotted an engine with a pending raw callback")
	}
	// Once the raw event fires, the engine is snapshotable again.
	e.Run(10)
	if _, err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	donor := newSnapRig()
	donor.eng.AtFn(5, "ev", donor.a)
	st, err := donor.eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Registry-size mismatch: an engine built differently.
	if err := New().Restore(st); err == nil {
		t.Fatal("restored into an engine with no registry")
	}

	// A callback ID beyond the registry.
	bad := st
	bad.Events = append([]EventRecord(nil), st.Events...)
	bad.Events[0] = EventRecord{At: 5, Seq: 1, Name: "bogus", Fn: 99, Timer: -1}
	if err := newSnapRig().eng.Restore(bad); err == nil {
		t.Fatal("resolved a callback id outside the registry")
	}

	// A timer index beyond the registry.
	bad.Events[0] = EventRecord{At: 5, Seq: 1, Name: "bogus", Timer: 42}
	if err := newSnapRig().eng.Restore(bad); err == nil {
		t.Fatal("resolved a timer index outside the registry")
	}

	// Restore mid-run is refused: the firing loop holds queue state.
	r := newSnapRig()
	var running error
	r.eng.At(1, "inside", func() { running = r.eng.Restore(st) })
	r.eng.Run(2)
	if running == nil {
		t.Fatal("Restore succeeded inside Run")
	}
}

// TestRestoreRejectsCorruptQueue feeds Restore images whose event
// records no engine could have held. Each must fail before the queue is
// touched: a timer armed twice would be pushed into the wheel twice
// (its list links then loop and Run never returns), and an event before
// the clock or out of (at, seq) order would fire after later events,
// running the clock backwards.
func TestRestoreRejectsCorruptQueue(t *testing.T) {
	valid := func() EngineState {
		return EngineState{Now: 10, Seq: 5, Binds: 2, Timers: 1, Events: []EventRecord{
			{At: 10, Seq: 3, Name: "a", Fn: 1, Timer: -1},
			{At: 12, Seq: 5, Name: "tick", Timer: 0},
			{At: 12, Seq: SeqBand | 99, Name: "keyed", Fn: 2, Timer: -1},
		}}
	}
	for _, tc := range []struct {
		name string
		edit func(s *EngineState)
		ok   bool
	}{
		{"valid", func(s *EngineState) {}, true},
		{"timer twice", func(s *EngineState) {
			s.Events = append(s.Events, EventRecord{At: 20, Seq: 4, Name: "tick", Timer: 0})
		}, false},
		{"before clock", func(s *EngineState) { s.Events[0].At = 9 }, false},
		{"out of order", func(s *EngineState) { s.Events[0], s.Events[1] = s.Events[1], s.Events[0] }, false},
		{"duplicate key", func(s *EngineState) { s.Events[1].At, s.Events[1].Seq = 10, 3 }, false},
		{"unissued sequence", func(s *EngineState) { s.Events[1].Seq = 6 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := valid()
			tc.edit(&st)
			r := newSnapRig()
			r.eng.AtFn(50, "before", r.a)
			err := r.eng.Restore(st)
			if tc.ok {
				if err != nil {
					t.Fatal(err)
				}
				r.eng.Run(100)
				if want := []string{"a@10", "t@12", "b@12", "t@19"}; !reflect.DeepEqual(r.log[:4], want) {
					t.Fatalf("fired %v, want prefix %v", r.log, want)
				}
				return
			}
			if err == nil {
				t.Fatal("Restore accepted a corrupt image")
			}
			// A rejected image leaves the engine as it was.
			if r.eng.Now() != 0 || r.eng.Pending() != 1 {
				t.Fatalf("rejected Restore touched the engine: now=%v pending=%d", r.eng.Now(), r.eng.Pending())
			}
		})
	}
}

// TestSchedulerEachAndReset pins the queue-walk contract checkpoints
// rely on: each visits every queued event, reset empties the queue and
// re-bases its clock.
func TestSchedulerEachAndReset(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		var q wheelSched
		q.init(tickShift)
		evs := make([]*Event, 5)
		for i := range evs {
			evs[i] = &Event{at: Time(100 - 10*i), seq: uint64(i + 1), index: -1}
			q.push(evs[i])
		}
		seen := map[*Event]bool{}
		q.each(func(ev *Event) { seen[ev] = true })
		if len(seen) != len(evs) {
			t.Fatalf("each visited %d of %d events", len(seen), len(evs))
		}
		for _, ev := range evs {
			if !seen[ev] {
				t.Fatalf("each missed event at %d", ev.at)
			}
		}
		for _, ev := range evs {
			ev.next, ev.prev, ev.index = nil, nil, -1
		}
		q.reset(1000)
		if q.len() != 0 {
			t.Fatalf("reset left %d events queued", q.len())
		}
		// The reset queue accepts events at its new epoch.
		ev := &Event{at: 1005, seq: 99, index: -1}
		q.push(ev)
		if got := q.peek(); got != ev {
			t.Fatalf("post-reset peek = %v", got)
		}
	})
}

func TestFnIdentity(t *testing.T) {
	e := New()
	if got := e.Binds(); got != 0 {
		t.Fatalf("fresh engine Binds = %d", got)
	}
	var fired int
	fn := e.Bind(func() { fired++ })
	if fn.Nil() || fn.ID() != 1 || e.Binds() != 1 {
		t.Fatalf("bound fn: nil=%v id=%d binds=%d", fn.Nil(), fn.ID(), e.Binds())
	}
	fn.Call()
	if fired != 1 {
		t.Fatal("Call did not invoke the callback")
	}

	var zero Fn
	zero.Call() // no-op by contract
	if !zero.Nil() || zero.ID() != 0 {
		t.Fatalf("zero Fn: nil=%v id=%d", zero.Nil(), zero.ID())
	}
	if raw := RawFn(func() {}); raw.ID() != -1 || raw.Nil() {
		t.Fatalf("raw Fn: id=%d nil=%v", raw.ID(), raw.Nil())
	}
	if rawNil := RawFn(nil); !rawNil.Nil() || rawNil.ID() != 0 {
		t.Fatalf("RawFn(nil): nil=%v id=%d", rawNil.Nil(), rawNil.ID())
	}

	if got, err := e.ResolveFn(0); err != nil || !got.Nil() {
		t.Fatalf("ResolveFn(0) = %+v, %v", got, err)
	}
	got, err := e.ResolveFn(fn.ID())
	if err != nil || got.ID() != fn.ID() {
		t.Fatalf("ResolveFn(%d) = %+v, %v", fn.ID(), got, err)
	}
	got.Call()
	if fired != 2 {
		t.Fatal("resolved Fn is not the bound callback")
	}
	if _, err := e.ResolveFn(2); err == nil {
		t.Fatal("resolved an unbound id")
	}
	if _, err := e.ResolveFn(-1); err == nil {
		t.Fatal("resolved the raw id")
	}

	if e.Timers() != 0 {
		t.Fatalf("Timers = %d", e.Timers())
	}
	e.NewTimer("t", func() {})
	if e.Timers() != 1 {
		t.Fatalf("Timers = %d after NewTimer", e.Timers())
	}
}

func TestRNGStateRoundTrip(t *testing.T) {
	a := NewRNG(42)
	a.Uint64()
	a.Uint64()
	st := a.State()
	b := NewRNG(7)
	b.SetState(st)
	for i := 0; i < 8; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %d != %d", i, x, y)
		}
	}
}

func TestFIFORandomAccess(t *testing.T) {
	var q FIFO[int]
	for i := 1; i <= 3; i++ {
		q.Push(i)
	}
	q.PushFront(0)
	if q.Len() != 4 || q.Peek() != 0 {
		t.Fatalf("len=%d peek=%d", q.Len(), q.Peek())
	}
	for i := 0; i < 4; i++ {
		if q.At(i) != i {
			t.Fatalf("At(%d) = %d", i, q.At(i))
		}
	}
	// Wrap the ring: pop two, push two, and index again.
	q.Pop()
	q.Pop()
	q.Push(4)
	q.Push(5)
	for i := 0; i < 4; i++ {
		if q.At(i) != i+2 {
			t.Fatalf("wrapped At(%d) = %d", i, q.At(i))
		}
	}
}
