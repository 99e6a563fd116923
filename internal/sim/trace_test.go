package sim

import "testing"

func TestTracerRecordsFiredEvents(t *testing.T) {
	e := New()
	tr := e.Attach(4)
	for i := 0; i < 3; i++ {
		e.After(Time(10*(i+1)), "ev", func() {})
	}
	e.Run(Second)
	if tr.Count() != 3 {
		t.Fatalf("Count = %d", tr.Count())
	}
	last := tr.Last(2)
	if len(last) != 2 || last[0].At != 20 || last[1].At != 30 {
		t.Fatalf("Last(2) = %v", last)
	}
}

func TestTracerRingWraps(t *testing.T) {
	e := New()
	tr := e.Attach(4)
	for i := 1; i <= 10; i++ {
		e.After(Time(i), "ev", func() {})
	}
	e.Run(Second)
	if tr.Count() != 10 {
		t.Fatalf("Count = %d", tr.Count())
	}
	last := tr.Last(4)
	if len(last) != 4 {
		t.Fatalf("Last(4) len = %d", len(last))
	}
	for i, want := range []Time{7, 8, 9, 10} {
		if last[i].At != want {
			t.Fatalf("Last = %v, want times 7..10", last)
		}
	}
	// Asking for more than capacity returns everything held, oldest first.
	if got := tr.Last(100); len(got) != 4 || got[0].At != 7 {
		t.Fatalf("Last(100) = %v", got)
	}
}

func TestTracerCancelledEventsNotRecorded(t *testing.T) {
	e := New()
	tr := e.Attach(8)
	ev := e.After(10, "cancelled", func() {})
	ev.Cancel()
	e.After(20, "kept", func() {})
	e.Run(Second)
	if tr.Count() != 1 {
		t.Fatalf("Count = %d, cancelled event recorded", tr.Count())
	}
}

func TestDetachStopsRecording(t *testing.T) {
	e := New()
	tr := e.Attach(8)
	e.After(10, "a", func() {})
	e.Run(15)
	e.Detach()
	e.After(10, "b", func() {})
	e.Run(Second)
	if tr.Count() != 1 {
		t.Fatalf("Count = %d after detach", tr.Count())
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	e := New()
	tr := e.Attach(0)
	if cap(tr.buf) != 1024 {
		t.Fatalf("default capacity = %d", cap(tr.buf))
	}
}

func TestTracerStep(t *testing.T) {
	e := New()
	tr := e.Attach(4)
	e.After(5, "s", func() {})
	e.Step()
	if tr.Count() != 1 {
		t.Fatal("Step not traced")
	}
}

func TestTraced(t *testing.T) {
	e := New()
	if e.Traced() {
		t.Fatal("fresh engine reports a tracer")
	}
	e.Attach(4)
	if !e.Traced() {
		t.Fatal("Attach did not install a tracer")
	}
}
