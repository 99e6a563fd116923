package sim

import "testing"

func TestTracerRecordsFiredEvents(t *testing.T) {
	e := New()
	tr := e.Attach(4)
	for i := 0; i < 3; i++ {
		e.After(Time(10*(i+1)), func() {})
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
		e.After(Time(i), func() {})
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
	tm := e.NewTimer("stopped", func() {})
	tm.ArmAfter(10)
	tm.Stop()
	e.After(20, func() {})
	e.Run(Second)
	if tr.Count() != 1 {
		t.Fatalf("Count = %d, stopped timer recorded", tr.Count())
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
	e.After(5, func() {})
	e.Step()
	if tr.Count() != 1 {
		t.Fatal("Step not traced")
	}
}

// TestTracerNamesEvents: the recorder names each firing by the label
// of the Fn or Timer that scheduled it.
func TestTracerNamesEvents(t *testing.T) {
	e := New()
	tr := e.Attach(4)
	tm := e.NewTimer("layer.timer", func() {})
	e.AfterFn(10, e.Bind("layer.bound", func() {}))
	tm.ArmAfter(20)
	e.Run(Second)
	last := tr.Last(2)
	if len(last) != 2 || last[0].Name != "layer.bound" || last[1].Name != "layer.timer" {
		t.Fatalf("Last(2) = %v, want layer.bound then layer.timer", last)
	}
}
