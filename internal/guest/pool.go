package guest

import (
	"fmt"

	"cdna/internal/mem"
)

// A slot holds a page's offset plus one, so the largest offset plus one,
// PoolPages, must fit in a uint16 (this conversion fails to compile if
// it does not).
const _ = uint16(PoolPages)

// bufPool is one direction's buffer pages of a driver: PoolPages
// contiguous frames, named by their 16-bit offset from the first. Free
// pages sit on a LIFO stack. A page posted to the ring is held in the
// slot of its descriptor's ring index until the driver reaps that slot.
// Ring indices are free-running over a power-of-two ring, so a slot is
// reused only after its previous occupant was reaped. Offsets make the
// stack 3 KB and the slot table 2 KB, a quarter of what frame numbers
// take.
type bufPool struct {
	base  mem.PFN
	n     int                 // free pages: free[:n], top of stack at n-1
	free  [PoolPages]uint16   // offsets of free pages
	slots [RingEntries]uint16 // offset+1 of the page held per ring slot; 0 = empty
}

// init allocates the pool's run of frames to dom, every page free. The
// first pop takes the run's last frame.
func (p *bufPool) init(m *mem.Memory, dom mem.DomID) {
	p.base = m.AllocRun(dom, PoolPages)
	for i := range p.free {
		p.free[i] = uint16(i)
	}
	p.n = PoolPages
}

// Len returns the number of free pages.
func (p *bufPool) Len() int { return p.n }

// pop takes the most recently freed page; the pool must not be empty.
func (p *bufPool) pop() mem.PFN {
	p.n--
	return p.base + mem.PFN(p.free[p.n])
}

// put returns a page of the pool's run to the free stack.
func (p *bufPool) put(pfn mem.PFN) {
	p.free[p.n] = p.offset(pfn)
	p.n++
}

// hold records pfn as the page posted at ring index idx.
func (p *bufPool) hold(idx uint32, pfn mem.PFN) {
	p.slots[slot(idx)] = p.offset(pfn) + 1
}

// reap returns the page held at ring index idx, if any, to the free
// stack and empties its slot.
func (p *bufPool) reap(idx uint32) {
	s := &p.slots[slot(idx)]
	if *s != 0 {
		p.free[p.n] = *s - 1
		p.n++
		*s = 0
	}
}

// offset returns pfn's offset in the run, panicking on a frame outside
// it: only the pool's own pages may come back to it.
func (p *bufPool) offset(pfn mem.PFN) uint16 {
	off := pfn - p.base
	if off >= PoolPages {
		panic(fmt.Sprintf("guest: page %d outside the buffer pool run %d..%d", pfn, p.base, p.base+PoolPages-1))
	}
	return uint16(off)
}
