package core

import (
	"errors"
	"fmt"

	"cdna/internal/enum"
	"cdna/internal/mem"
	"cdna/internal/ring"
	"cdna/internal/sim"
	"cdna/internal/stats"
)

// Mode selects how DMA memory protection is provided.
type Mode int

// Protection modes.
const (
	// ModeHypercall is the paper's software mechanism: guests call into
	// the hypervisor to validate and enqueue every DMA descriptor.
	ModeHypercall Mode = iota
	// ModeIOMMU models a context-aware IOMMU (§5.3): guests enqueue
	// descriptors directly and the hypervisor only maintains IOMMU
	// mappings; per-descriptor hypervisor work disappears.
	ModeIOMMU
	// ModeOff disables protection entirely (Table 4's upper bound):
	// guests enqueue directly and nothing is validated.
	ModeOff
)

// Modes is the protection mode's token table, also its String form:
// hypercall | iommu | off.
var Modes = enum.New[Mode]("core", "protection mode", "hypercall", "iommu", "off")

func (m Mode) String() string { return Modes.String(m) }

// MarshalText encodes the mode as its token, so protection modes
// round-trip through JSON grid specs and result records.
func (m Mode) MarshalText() ([]byte, error) { return Modes.MarshalText(m) }

// UnmarshalText decodes a protection mode token.
func (m *Mode) UnmarshalText(b []byte) error { return Modes.UnmarshalText(b, m) }

// Errors reported by descriptor validation.
var (
	ErrNotRingOwner  = errors.New("core: ring not registered to this domain")
	ErrForeignMemory = errors.New("core: descriptor references memory not owned by caller")
	ErrRingFull      = ring.ErrRingFull
	ErrZeroLength    = errors.New("core: descriptor has zero length")
	ErrRevoked       = errors.New("core: context has been revoked")
	ErrPinOrder      = errors.New("core: ring producer index does not follow the outstanding pins")
)

// pin records one descriptor's page pins in one word: descriptors
// reference [Addr, Addr+Len), so the spanned frames are first..first+n-1
// and the hot pin/unpin paths never materialize a frame slice. first
// sits above the low pinCountBits bits and n in them; a PFN is below
// 2^52, and a 16-bit Len spans at most 17 frames.
type pin uint64

const pinCountBits = 8

func makePin(first mem.PFN, n int) pin { return pin(first)<<pinCountBits | pin(n) }

// span returns the pinned frames' first PFN and count.
func (w pin) span() (mem.PFN, int) {
	return mem.PFN(w >> pinCountBits), int(w & (1<<pinCountBits - 1))
}

// unpin drops the pin's page references.
func (w pin) unpin(m *mem.Memory) {
	first, n := w.span()
	for i := range mem.PFN(n) {
		m.Put(first + i)
	}
}

// ringState is the hypervisor's per-ring protection bookkeeping.
type ringState struct {
	owner mem.DomID
	r     *ring.Ring
	seq   *SeqAssigner
	// pins holds one record per outstanding descriptor, in ring order:
	// pins[i] belongs to free-running ring index pinHead+i, so a batch
	// may only extend it at pinHead+pins.Len(). It grows on demand; tx
	// rings rarely fill, so sizing it from the ring costs more memory.
	pins    sim.FIFO[pin]
	pinHead uint32
	active  bool
}

// Protection is the hypervisor side of CDNA DMA memory protection
// (§3.3). All descriptor enqueues for registered rings flow through
// Enqueue, which validates ownership, pins pages, stamps sequence
// numbers, and writes descriptor bytes with the hypervisor's exclusive
// ring-write access.
type Protection struct {
	Mem  *mem.Memory
	Mode Mode

	rings map[*ring.Ring]*ringState

	// Counters for the evaluation and tests.
	Validated   stats.Counter // descriptors validated and enqueued
	Rejected    stats.Counter // descriptors refused
	Reaped      stats.Counter // completed descriptors unpinned
	PinnedPages stats.Counter // page pins performed
}

// NewProtection creates the protection engine.
func NewProtection(m *mem.Memory, mode Mode) *Protection {
	return &Protection{Mem: m, Mode: mode, rings: make(map[*ring.Ring]*ringState)}
}

// RegisterRing places a guest's descriptor ring under hypervisor
// management during driver initialization: the hypervisor records the
// owner, seeds the sequence assigner, and takes exclusive write access
// to the ring's pages (ModeHypercall only).
func (p *Protection) RegisterRing(owner mem.DomID, r *ring.Ring, seqSpace uint32) error {
	if _, dup := p.rings[r]; dup {
		return fmt.Errorf("core: ring %q already registered", r.Name)
	}
	if !p.Mem.RangeOwned(owner, r.Base, r.Bytes()) {
		return ErrForeignMemory
	}
	if p.Mode == ModeHypercall {
		first, n := mem.RangeSpan(r.Base, r.Bytes())
		for i := range mem.PFN(n) {
			if err := p.Mem.SetHypExclusive(first+i, true); err != nil {
				return err
			}
		}
	}
	p.rings[r] = &ringState{owner: owner, r: r, seq: NewSeqAssigner(seqSpace), active: true}
	return nil
}

// UnregisterRing releases a ring (context revocation/teardown): all
// outstanding pins are dropped and exclusive access is released.
func (p *Protection) UnregisterRing(r *ring.Ring) {
	st, ok := p.rings[r]
	if !ok {
		return
	}
	for st.pins.Len() > 0 {
		st.pins.Pop().unpin(p.Mem)
	}
	st.active = false
	if p.Mode == ModeHypercall {
		first, n := mem.RangeSpan(r.Base, r.Bytes())
		for i := range mem.PFN(n) {
			p.Mem.SetHypExclusive(first+i, false)
		}
	}
	delete(p.rings, r)
}

// Registered reports whether r is under protection management.
func (p *Protection) Registered(r *ring.Ring) bool {
	_, ok := p.rings[r]
	return ok
}

// Pins returns the number of descriptors with outstanding page pins on r.
func (p *Protection) Pins(r *ring.Ring) int {
	if st, ok := p.rings[r]; ok {
		return st.pins.Len()
	}
	return 0
}

// Enqueue validates and enqueues descriptors on behalf of owner
// (§3.3). It first reaps completions (decrementing refcounts for
// descriptors the NIC has consumed — the paper's lazy reap), verifies
// that every page each descriptor references is owned by the caller,
// assigns each its sequence number and writes it into the ring with
// hypervisor-exclusive access, then pins the pages and finally publishes
// the batch. On any validation failure nothing from the batch is pinned
// or published. A batch that would not start right after the
// outstanding pins (the ring was published behind the hypervisor's back)
// is refused the same way.
//
// The returned count is the number of descriptors enqueued (all or
// nothing). CPU cost for this work is charged by the caller (the
// hypercall path in internal/xen).
func (p *Protection) Enqueue(owner mem.DomID, r *ring.Ring, descs []ring.Desc) (int, error) {
	st, ok := p.rings[r]
	if !ok || st.owner != owner {
		p.Rejected.Add(uint64(len(descs)))
		return 0, ErrNotRingOwner
	}
	if !st.active {
		p.Rejected.Add(uint64(len(descs)))
		return 0, ErrRevoked
	}
	p.reap(st)
	if len(descs) > r.Space() {
		p.Rejected.Add(uint64(len(descs)))
		return 0, ErrRingFull
	}
	// Validate the whole batch before touching the ring.
	for _, d := range descs {
		if d.Len == 0 {
			p.Rejected.Add(uint64(len(descs)))
			return 0, ErrZeroLength
		}
		if !p.Mem.RangeOwned(owner, d.Addr, int(d.Len)) {
			p.Rejected.Add(uint64(len(descs)))
			return 0, ErrForeignMemory
		}
	}
	idx := r.Prod()
	if st.pins.Len() == 0 {
		st.pinHead = idx
	} else if idx != st.pinHead+uint32(st.pins.Len()) {
		p.Rejected.Add(uint64(len(descs)))
		return 0, ErrPinOrder
	}
	for i, d := range descs {
		d.Seq = st.seq.Assign()
		d.Flags |= ring.FlagValid
		if err := r.WriteDesc(p.Mem, mem.DomHyp, idx+uint32(i), d); err != nil {
			// Unreachable for registered rings; fail closed before
			// anything is pinned.
			return 0, err
		}
	}
	for _, d := range descs {
		first, npg := mem.RangeSpan(d.Addr, int(d.Len))
		for i := range mem.PFN(npg) {
			p.Mem.Get(first + i)
		}
		p.PinnedPages.Add(uint64(npg))
		st.pins.Push(makePin(first, npg))
	}
	if err := r.Publish(len(descs)); err != nil {
		// Unreachable: Space was checked above. Fail closed.
		return 0, err
	}
	p.Validated.Add(uint64(len(descs)))
	return len(descs), nil
}

// reap drops pins for descriptors the NIC has consumed (visible through
// the ring's consumer index, which the NIC writes back to host memory).
func (p *Protection) reap(st *ringState) {
	cons := st.r.Cons()
	n := 0
	// Free-running indices: the oldest pin is complete when pinHead is
	// strictly below cons in free-running terms.
	for st.pins.Len() > 0 && int32(cons-st.pinHead) > 0 {
		st.pins.Pop().unpin(p.Mem)
		st.pinHead++
		n++
	}
	if n > 0 {
		p.Reaped.Add(uint64(n))
	}
}

// ReapNow forces an immediate reap (the paper notes reaping could be
// done more aggressively; teardown paths use this).
func (p *Protection) ReapNow(r *ring.Ring) {
	if st, ok := p.rings[r]; ok {
		p.reap(st)
	}
}

// DirectEnqueue models the unprotected paths (ModeOff and ModeIOMMU):
// the guest writes descriptors straight into its ring with no
// hypervisor validation, pinning, or sequence stamping. With ModeOff
// this is exactly the Table 4 "protection disabled" configuration —
// and the reason that configuration is unsafe.
func (p *Protection) DirectEnqueue(owner mem.DomID, r *ring.Ring, descs []ring.Desc) (int, error) {
	if len(descs) > r.Space() {
		return 0, ErrRingFull
	}
	idx := r.Prod()
	for _, d := range descs {
		d.Flags |= ring.FlagValid
		if err := r.WriteDesc(p.Mem, owner, idx, d); err != nil {
			return 0, err
		}
		idx++
	}
	if err := r.Publish(len(descs)); err != nil {
		return 0, err
	}
	return len(descs), nil
}
