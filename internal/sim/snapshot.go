package sim

import (
	"fmt"
	"sort"
)

// EventRecord is one pending event in a checkpoint: its exact queue key
// (at, seq), its trace name, and its callback identity — either a bound
// callback ID (pooled one-shot events) or the owning timer's registry
// index (persistent timer events).
type EventRecord struct {
	At    Time
	Seq   uint64
	Name  string
	Fn    int32 // bound-callback ID; 0 for timer events and nil callbacks
	Timer int32 // timer registry index, or -1 for pooled events
}

// EngineState is the engine's full checkpoint: clock, sequence counter,
// fired-event count, every pending event, and the registry sizes the
// restoring engine is verified against.
type EngineState struct {
	Now    Time
	Seq    uint64
	Fired  uint64
	Binds  int
	Timers int
	Events []EventRecord
}

// Snapshot captures the engine's state. It fails if any pending event
// carries a raw (unregistered) callback — such an event has no portable
// identity; see RawFn.
func (e *Engine) Snapshot() (EngineState, error) {
	s := EngineState{
		Now:    e.now,
		Seq:    e.seq,
		Fired:  e.fired,
		Binds:  len(e.binds),
		Timers: len(e.timers),
		Events: make([]EventRecord, 0, e.q.len()),
	}
	var err error
	e.q.each(func(ev *Event) {
		rec := EventRecord{At: ev.at, Seq: ev.seq, Name: ev.name, Timer: -1}
		if ev.timer {
			rec.Timer = ev.tm
		} else {
			if ev.fnID == rawFnID && err == nil {
				err = fmt.Errorf("sim: pending event %q has an unregistered callback", ev.name)
			}
			rec.Fn = ev.fnID
		}
		s.Events = append(s.Events, rec)
	})
	if err != nil {
		return EngineState{}, err
	}
	// The wheel walk visits slots, not the total event order; sort by
	// (at, seq) so the same machine state always snapshots identically.
	sort.Slice(s.Events, func(i, j int) bool { return recordLess(s.Events[i], s.Events[j]) })
	return s, nil
}

func recordLess(a, b EventRecord) bool {
	return a.At < b.At || (a.At == b.At && a.Seq < b.Seq)
}

// Restore replaces the engine's clock, counters and event queue with a
// checkpoint's. The engine must come from the same deterministic
// construction as the snapshot donor (same config ⇒ same bind and
// timer registries). Before touching the queue, Restore verifies the
// registry sizes, resolves every recorded callback, and checks that the
// records form a queue the engine could have held: strictly increasing
// in (At, Seq) as Snapshot writes them, none before the clock, each
// timer armed at most once, and every counter sequence already issued.
func (e *Engine) Restore(s EngineState) error {
	if e.running {
		return fmt.Errorf("sim: Restore during Run")
	}
	if len(e.binds) != s.Binds || len(e.timers) != s.Timers {
		return fmt.Errorf("sim: registry mismatch: engine has %d binds/%d timers, snapshot %d/%d",
			len(e.binds), len(e.timers), s.Binds, s.Timers)
	}
	fns := make([]Fn, len(s.Events))
	armed := make([]bool, len(e.timers))
	for i, rec := range s.Events {
		switch {
		case rec.At < s.Now:
			return fmt.Errorf("sim: event %q at %v precedes the snapshot clock %v", rec.Name, rec.At, s.Now)
		case rec.Seq&SeqBand == 0 && rec.Seq > s.Seq:
			return fmt.Errorf("sim: event %q has sequence %d beyond the snapshot counter %d", rec.Name, rec.Seq, s.Seq)
		case i > 0 && !recordLess(s.Events[i-1], rec):
			return fmt.Errorf("sim: event %q (at %v, seq %d) does not follow (at %v, seq %d): records must be strictly increasing",
				rec.Name, rec.At, rec.Seq, s.Events[i-1].At, s.Events[i-1].Seq)
		}
		if rec.Timer >= 0 {
			if int(rec.Timer) >= len(e.timers) {
				return fmt.Errorf("sim: snapshot references timer %d of %d", rec.Timer, len(e.timers))
			}
			if armed[rec.Timer] {
				return fmt.Errorf("sim: snapshot arms timer %d twice", rec.Timer)
			}
			armed[rec.Timer] = true
			continue
		}
		fn, err := e.ResolveFn(rec.Fn)
		if err != nil {
			return fmt.Errorf("sim: event %q: %w", rec.Name, err)
		}
		fns[i] = fn
	}

	// Detach whatever is queued (pooled events are dropped for the
	// collector; timer events just become unarmed), then rebuild the
	// queue with the snapshot's exact (at, seq) keys. The walk collects
	// before unlinking: each traverses the very pointers being cleared.
	var queued []*Event
	e.q.each(func(ev *Event) { queued = append(queued, ev) })
	for _, ev := range queued {
		ev.next, ev.prev, ev.index = nil, nil, -1
	}
	e.q.reset(s.Now)
	e.now, e.seq, e.fired = s.Now, s.Seq, s.Fired
	for i, rec := range s.Events {
		if rec.Timer >= 0 {
			t := e.timers[rec.Timer]
			t.ev.at, t.ev.seq = rec.At, rec.Seq
			e.q.push(&t.ev)
			continue
		}
		ev := e.alloc()
		ev.at, ev.seq, ev.name, ev.fn, ev.fnID = rec.At, rec.Seq, rec.Name, fns[i].f, fns[i].id
		e.q.push(ev)
	}
	return nil
}
