package sim

import "math/bits"

// wheelSched is a hierarchical timing wheel (Linux-kernel style
// cascading levels): wheelLevels levels of wheelSlots slots each, where
// a level-l slot spans wheelSlots^l ticks and one tick is the wheel
// granularity (1<<gshift nanoseconds). Events hang off per-slot
// intrusive circular doubly-linked lists threaded through the pooled
// Event's next/prev fields, so schedule and cancel are O(1) pointer
// splices with zero allocation; per-level occupancy bitmaps (one uint64
// per level — wheelSlots is 64 precisely so a level's occupancy is one
// word) make "find the next non-empty slot" a single TrailingZeros64.
//
// Exact (at, seq) total order — the engine's determinism contract — is
// preserved by two rules:
//
//   - level-0 lists are kept sorted by (at, seq) (insertion walks
//     backwards from the tail, which is O(1) for the dominant
//     monotonic-append pattern), so the head of the lowest occupied
//     level-0 slot is the global minimum and same-timestamp events
//     drain in seq order;
//   - higher-level lists are unsorted (append), but their events are
//     cascaded — re-placed one level down — when the clock enters
//     their slot's span, and every cascade lands same-tick events back
//     in a sorted level-0 list before they can fire. A cascaded event
//     keeps its (at, seq) key, so ordering survives any number of
//     cascade hops.
//
// Events beyond the wheel horizon (wheelSlots^wheelLevels ticks) go to
// an unsorted overflow list and are re-placed into the wheel when the
// clock crosses into their top-level epoch.
//
// The wheel never scans time: the clock (cur, in ticks) advances only
// to popped events' timestamps, so an idle span costs nothing.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64: one occupancy word per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 6 // horizon: 64^6 ticks (~2199 s at the 32 ns tick)

	// overflowIdx is the Event.index marker for the overflow list; slot
	// indices are level*wheelSlots+slot in [0, overflowIdx).
	overflowIdx = wheelLevels * wheelSlots
)

type wheelSched struct {
	gshift uint   // log2 of granularity: tick = at >> gshift
	cur    uint64 // tick of the last popped event; never ahead of one
	count  int

	occ   [wheelLevels]uint64            // per-level slot occupancy bitmaps
	slots [wheelLevels][wheelSlots]Event // circular-list sentinels
	over  Event                          // overflow-list sentinel
}

func (w *wheelSched) init(gshift uint) {
	w.gshift = gshift
	for l := range w.slots {
		for s := range w.slots[l] {
			sentinelInit(&w.slots[l][s])
		}
	}
	sentinelInit(&w.over)
}

func sentinelInit(s *Event) { s.next, s.prev = s, s }

func listEmpty(s *Event) bool { return s.next == s }

// insertAfter splices ev in after p.
func insertAfter(p, ev *Event) {
	ev.prev = p
	ev.next = p.next
	p.next.prev = ev
	p.next = ev
}

func listUnlink(ev *Event) {
	ev.prev.next = ev.next
	ev.next.prev = ev.prev
	ev.next, ev.prev = nil, nil
}

func (w *wheelSched) len() int { return w.count }

func (w *wheelSched) tick(t Time) uint64 { return uint64(t) >> w.gshift }

func (w *wheelSched) push(ev *Event) {
	w.place(ev)
	w.count++
}

// place files ev into the level/slot its distance from cur selects. It
// is also the cascade target: relocated events keep their (at, seq) key
// and simply land closer to level 0.
func (w *wheelSched) place(ev *Event) {
	t := w.tick(ev.at)
	// The level is the highest 6-bit digit in which t differs from cur:
	// same digit everywhere above level l means t is within the current
	// level-(l+1) epoch, and l is the smallest such level.
	d := t ^ w.cur
	if d == 0 {
		w.insert(0, int(t&wheelMask), ev)
		return
	}
	l := (63 - bits.LeadingZeros64(d)) / wheelBits
	if l >= wheelLevels {
		ev.index = overflowIdx
		insertAfter(w.over.prev, ev) // append; overflow is unsorted
		return
	}
	w.insert(l, int((t>>(uint(l)*wheelBits))&wheelMask), ev)
}

func (w *wheelSched) insert(l, s int, ev *Event) {
	sent := &w.slots[l][s]
	if l == 0 {
		// Sorted insert, scanning backwards from the tail: new events
		// carry fresh sequence numbers, so appending at the tail is the
		// common case and the walk is O(1) amortized.
		p := sent.prev
		for p != sent && eventLess(ev, p) {
			p = p.prev
		}
		insertAfter(p, ev)
	} else {
		insertAfter(sent.prev, ev)
	}
	w.occ[l] |= 1 << uint(s)
	ev.index = int32(l*wheelSlots + s)
}

// unlink removes a queued event and maintains the occupancy bitmap.
func (w *wheelSched) unlink(ev *Event) {
	idx := int(ev.index)
	listUnlink(ev)
	ev.index = -1
	if idx < overflowIdx {
		l, s := idx>>wheelBits, idx&wheelMask
		if listEmpty(&w.slots[l][s]) {
			w.occ[l] &^= 1 << uint(s)
		}
	}
}

// peek returns the (at, seq)-minimum queued event without removing it.
// Level 0 is O(1); a non-empty higher slot or the overflow list is
// scanned for its minimum (each event is scanned this way at most once
// per level it cascades through, so the amortized cost stays O(1)).
func (w *wheelSched) peek() *Event {
	if w.count == 0 {
		return nil
	}
	if w.occ[0] != 0 {
		s := bits.TrailingZeros64(w.occ[0])
		return w.slots[0][s].next // sorted: head is the minimum
	}
	for l := 1; l < wheelLevels; l++ {
		if w.occ[l] == 0 {
			continue
		}
		s := bits.TrailingZeros64(w.occ[l])
		return minInList(&w.slots[l][s])
	}
	return minInList(&w.over)
}

func minInList(sent *Event) *Event {
	best := sent.next
	for ev := best.next; ev != sent; ev = ev.next {
		if eventLess(ev, best) {
			best = ev
		}
	}
	return best
}

// pop removes ev — the event peek just returned — and advances the
// wheel clock to its tick, cascading the slot the clock just entered.
func (w *wheelSched) pop(ev *Event) {
	idx := int(ev.index)
	w.unlink(ev)
	w.count--
	w.advance(w.tick(ev.at))
	if idx >= wheelSlots && idx < overflowIdx {
		// ev came from a level >= 1 slot whose span the clock has now
		// entered: relocate its remaining events. Every one of them
		// shares ev's level-l digit (that is what a slot is), so each
		// lands at a strictly lower level — same-tick events reach the
		// sorted level-0 list before they can fire.
		w.cascade(idx>>wheelBits, idx&wheelMask)
	}
}

// popAt removes and returns the next event if it fires exactly at t.
// After a pop at time t, every remaining event at t sits at the head of
// the lowest occupied level-0 slot (same tick ⇒ level 0, sorted), so
// same-timestamp batch dispatch is one bitmap probe + one splice per
// event — never a heap sift or a hierarchy walk.
func (w *wheelSched) popAt(t Time) *Event {
	if w.occ[0] == 0 {
		return nil
	}
	s := bits.TrailingZeros64(w.occ[0])
	ev := w.slots[0][s].next
	if ev.at != t {
		return nil
	}
	w.unlink(ev)
	w.count--
	return ev
}

func (w *wheelSched) remove(ev *Event) {
	w.unlink(ev)
	w.count--
}

func (w *wheelSched) reschedule(ev *Event) {
	w.unlink(ev)
	w.place(ev)
}

// advance moves the wheel clock to tick t (the tick of an event being
// popped, so nothing earlier can exist or be scheduled later). Crossing
// into a new top-level epoch re-files overflow events that are now
// within the wheel horizon.
func (w *wheelSched) advance(t uint64) {
	const topShift = wheelBits * wheelLevels
	crossed := (t >> topShift) != (w.cur >> topShift)
	w.cur = t
	if !crossed || listEmpty(&w.over) {
		return
	}
	top := t >> topShift
	for ev := w.over.next; ev != &w.over; {
		next := ev.next
		if w.tick(ev.at)>>topShift == top {
			listUnlink(ev)
			w.place(ev)
		}
		ev = next
	}
}

// cascade relocates every event remaining in slot (l, s) one or more
// levels down after the clock entered the slot's span.
func (w *wheelSched) cascade(l, s int) {
	sent := &w.slots[l][s]
	if listEmpty(sent) {
		return
	}
	w.occ[l] &^= 1 << uint(s)
	for ev := sent.next; ev != sent; {
		next := ev.next
		ev.next, ev.prev = nil, nil
		w.place(ev)
		ev = next
	}
	sentinelInit(sent)
}
