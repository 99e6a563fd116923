package sim

// TraceEntry is one fired event in the engine's trace ring: when it
// fired and the label its callback was bound under ("" for a raw
// callback).
type TraceEntry struct {
	At   Time
	Name string
}

// Tracer is a fixed-size ring buffer of fired events — the simulator's
// flight recorder. Tracing costs one append per event, so it is off
// unless attached; cdnasim -trace uses it to show what the machine was
// doing at the end of a run.
type Tracer struct {
	buf   []TraceEntry
	next  int
	count uint64
}

// Attach installs a tracer recording the last n fired events.
func (e *Engine) Attach(n int) *Tracer {
	if n <= 0 {
		n = 1024
	}
	e.tracer = &Tracer{buf: make([]TraceEntry, 0, n)}
	return e.tracer
}

func (tr *Tracer) record(at Time, name string) {
	tr.count++
	if len(tr.buf) < cap(tr.buf) {
		tr.buf = append(tr.buf, TraceEntry{at, name})
		return
	}
	tr.buf[tr.next] = TraceEntry{at, name}
	tr.next = (tr.next + 1) % cap(tr.buf)
}

// Count returns the number of events recorded over the tracer's life.
func (tr *Tracer) Count() uint64 { return tr.count }

// Last returns up to k most recent entries, oldest first.
func (tr *Tracer) Last(k int) []TraceEntry {
	n := len(tr.buf)
	if k > n {
		k = n
	}
	out := make([]TraceEntry, 0, k)
	// Entries are ordered starting at next (oldest) when the ring is
	// full, else from 0.
	start := 0
	if n == cap(tr.buf) {
		start = tr.next
	}
	for i := n - k; i < n; i++ {
		out = append(out, tr.buf[(start+i)%n])
	}
	return out
}
