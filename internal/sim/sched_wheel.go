package sim

import "math/bits"

// wheelSched is a hierarchical timing wheel (Varghese & Lauck, SOSP
// '87; Linux-kernel style cascading levels). Level 0 has wheel0Slots
// slots of one tick each, where one tick is the wheel granularity
// (1<<gshift nanoseconds; 32 ns in every engine, so level 0 spans about
// 131 µs). Above it sit upperLevels levels of wheelSlots slots, where a
// slot of upper level l (1-based) spans wheel0Slots·wheelSlots^(l-1)
// ticks. Events hang off per-slot intrusive doubly-linked lists threaded
// through the pooled Event's next/prev fields and terminated by nil;
// each slot is a 16-byte {head, tail} pair, so schedule and unlink are
// O(1) pointer splices with zero allocation. Occupancy bitmaps make
// "find the next non-empty slot" a TrailingZeros64 per level: one word
// per upper level, and for level 0 a summary word over 64 words, so the
// lowest occupied level-0 slot is two TrailingZeros64.
//
// Why level 0 is wide: the model's packet-scale delays (NIC processing,
// DMA, wire and switch latency) are 1–100 µs. With a 64-slot level 0
// (2 µs) nearly every such event was filed on level 1 first, scanned
// there for the minimum by peek, and filed again by a cascade; DESIGN.md
// ("Scheduler") has the measured placement and scan counts. The 16-byte
// slot heads keep the wheel at about 70 KB per engine, where 4096
// sentinel Events would take 348 KB.
//
// Exact (at, seq) total order — the engine's determinism contract — is
// preserved by two rules:
//
//   - level-0 lists are kept sorted by (at, seq) (insertion walks
//     backwards from the tail, which is O(1) for the dominant
//     monotonic-append pattern), so the head of the lowest occupied
//     level-0 slot is the global minimum and same-timestamp events
//     drain in seq order;
//   - upper-level lists are unsorted (append), but their events are
//     cascaded — re-placed one level down or more — when the clock
//     enters their slot's span, and every cascade lands same-tick
//     events back in a sorted level-0 list before they can fire. A
//     cascaded event keeps its (at, seq) key, so ordering survives any
//     number of cascade hops.
//
// Events beyond the wheel horizon (2^horizonBits ticks) go to an
// unsorted overflow list and are re-placed into the wheel when the
// clock crosses into their horizon-sized epoch.
//
// The wheel never scans time: the clock (cur, in ticks) advances only
// to popped events' timestamps, so an idle span costs nothing.
const (
	wheel0Bits  = 12
	wheel0Slots = 1 << wheel0Bits // 4096 one-tick slots
	wheel0Mask  = wheel0Slots - 1
	wheel0Words = wheel0Slots / 64 // 64: the summary word has a bit per word

	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64: one occupancy word per upper level
	wheelMask   = wheelSlots - 1
	upperLevels = 4

	// horizonBits is log2 of the wheel horizon in ticks: 2^36 ticks,
	// about 2199 s at the 32 ns tick.
	horizonBits = wheel0Bits + upperLevels*wheelBits

	// Event.index is the slot's position in heads: level-0 slot s is s,
	// slot s of upper level l (1-based) is wheel0Slots+(l-1)*wheelSlots+s,
	// and overflowIdx marks the overflow list.
	overflowIdx = wheel0Slots + upperLevels*wheelSlots
)

// slotHead is one slot's event list: nil-terminated, both ends held so
// appending and the sorted insert's backward walk start at the tail.
type slotHead struct{ head, tail *Event }

type wheelSched struct {
	gshift uint   // log2 of granularity: tick = at >> gshift
	cur    uint64 // tick of the last popped event; never ahead of one
	count  int

	occ0Sum uint64                    // bit w set iff occ0[w] != 0
	occ0    [wheel0Words]uint64       // level-0 slot occupancy
	occ     [upperLevels]uint64       // upper-level slot occupancy
	heads   [overflowIdx + 1]slotHead // every slot's list, then overflow
}

func (w *wheelSched) init(gshift uint) { w.gshift = gshift }

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
	// A distance below wheel0Slots means t shares every digit above
	// level 0 with cur: it is within the current level-0 span.
	d := t ^ w.cur
	if d < wheel0Slots {
		w.insert0(int(t&wheel0Mask), ev)
		return
	}
	// Otherwise the level is the highest 6-bit digit above level 0 in
	// which t differs from cur: same digit everywhere above it means t
	// is within that level's current epoch.
	l := (63 - bits.LeadingZeros64(d) - wheel0Bits) / wheelBits
	if l >= upperLevels {
		w.appendTo(overflowIdx, ev) // overflow is unsorted
		return
	}
	s := int(t>>(wheel0Bits+uint(l)*wheelBits)) & wheelMask
	w.occ[l] |= 1 << uint(s)
	w.appendTo(wheel0Slots+l*wheelSlots+s, ev)
}

// insert0 files ev into level-0 slot s, keeping the list sorted.
func (w *wheelSched) insert0(s int, ev *Event) {
	h := &w.heads[s]
	// Scan backwards from the tail: new events carry fresh sequence
	// numbers, so appending at the tail is the common case and the
	// walk is O(1) amortized.
	p := h.tail
	for p != nil && eventLess(ev, p) {
		p = p.prev
	}
	ev.prev = p
	if p == nil {
		ev.next = h.head
		h.head = ev
	} else {
		ev.next = p.next
		p.next = ev
	}
	if ev.next == nil {
		h.tail = ev
	} else {
		ev.next.prev = ev
	}
	ev.index = int32(s)
	w.occ0[s>>6] |= 1 << uint(s&63)
	w.occ0Sum |= 1 << uint(s>>6)
}

// appendTo links ev at the tail of list idx (an upper slot or the
// overflow list); the caller maintains occupancy.
func (w *wheelSched) appendTo(idx int, ev *Event) {
	h := &w.heads[idx]
	ev.prev, ev.next = h.tail, nil
	if h.tail == nil {
		h.head = ev
	} else {
		h.tail.next = ev
	}
	h.tail = ev
	ev.index = int32(idx)
}

// unlink removes a queued event and maintains the occupancy bitmaps.
func (w *wheelSched) unlink(ev *Event) {
	idx := int(ev.index)
	h := &w.heads[idx]
	if ev.prev == nil {
		h.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if ev.next == nil {
		h.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	ev.next, ev.prev = nil, nil
	ev.index = -1
	if h.head == nil {
		w.clearOcc(idx)
	}
}

// clearOcc marks slot idx empty (the overflow list has no bit).
func (w *wheelSched) clearOcc(idx int) {
	switch {
	case idx < wheel0Slots:
		wi := idx >> 6
		w.occ0[wi] &^= 1 << uint(idx&63)
		if w.occ0[wi] == 0 {
			w.occ0Sum &^= 1 << uint(wi)
		}
	case idx < overflowIdx:
		u := idx - wheel0Slots
		w.occ[u>>wheelBits] &^= 1 << uint(u&wheelMask)
	}
}

// min0 returns the lowest occupied level-0 slot; occ0Sum must be
// non-zero.
func (w *wheelSched) min0() int {
	wi := bits.TrailingZeros64(w.occ0Sum)
	return wi<<6 | bits.TrailingZeros64(w.occ0[wi])
}

// peek returns the (at, seq)-minimum queued event without removing it.
// Level 0 is O(1); a non-empty upper slot or the overflow list is
// scanned for its minimum (each event is scanned this way at most once
// per level it cascades through, so the amortized cost stays O(1)).
func (w *wheelSched) peek() *Event {
	if w.count == 0 {
		return nil
	}
	if w.occ0Sum != 0 {
		return w.heads[w.min0()].head // sorted: head is the minimum
	}
	for l, o := range w.occ {
		if o != 0 {
			return minInList(w.heads[wheel0Slots+l*wheelSlots+bits.TrailingZeros64(o)].head)
		}
	}
	return minInList(w.heads[overflowIdx].head)
}

func minInList(best *Event) *Event {
	for ev := best.next; ev != nil; ev = ev.next {
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
	if idx >= wheel0Slots && idx < overflowIdx {
		// ev came from an upper slot whose span the clock has now
		// entered: relocate its remaining events. Every one of them
		// shares ev's digit at that level (that is what a slot is), so
		// each lands at a strictly lower level — same-tick events reach
		// the sorted level-0 list before they can fire.
		w.cascade(idx)
	}
}

// popAt removes and returns the next event if it fires exactly at t.
// After a pop at time t, every remaining event at t sits at the head of
// the lowest occupied level-0 slot (same tick ⇒ level 0, sorted), so
// same-timestamp batch dispatch is two bitmap probes + one splice per
// event — never a hierarchy walk.
func (w *wheelSched) popAt(t Time) *Event {
	if w.occ0Sum == 0 {
		return nil
	}
	ev := w.heads[w.min0()].head
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
// into a new horizon-sized epoch re-files overflow events that are now
// within the wheel horizon.
func (w *wheelSched) advance(t uint64) {
	crossed := (t >> horizonBits) != (w.cur >> horizonBits)
	w.cur = t
	if !crossed {
		return
	}
	top := t >> horizonBits
	for ev := w.heads[overflowIdx].head; ev != nil; {
		next := ev.next
		if w.tick(ev.at)>>horizonBits == top {
			w.unlink(ev)
			w.place(ev)
		}
		ev = next
	}
}

// cascade relocates every event remaining in upper slot idx one or more
// levels down after the clock entered the slot's span.
func (w *wheelSched) cascade(idx int) {
	ev := w.heads[idx].head
	if ev == nil {
		return
	}
	w.heads[idx] = slotHead{}
	w.clearOcc(idx)
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		w.place(ev)
		ev = next
	}
}
