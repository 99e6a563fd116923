package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

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

func (m Mode) String() string {
	switch m {
	case ModeHypercall:
		return "hypercall"
	case ModeIOMMU:
		return "iommu"
	case ModeOff:
		return "off"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a protection mode name: hypercall | iommu | off.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "hypercall":
		return ModeHypercall, nil
	case "iommu":
		return ModeIOMMU, nil
	case "off":
		return ModeOff, nil
	}
	return 0, fmt.Errorf("core: unknown protection mode %q (want hypercall | iommu | off)", s)
}

// MarshalText encodes the mode as its String() token, so protection
// modes round-trip through JSON grid specs and result records.
// Out-of-range values encode as their decimal value so records of
// failed experiments stay serializable.
func (m Mode) MarshalText() ([]byte, error) {
	if m < ModeHypercall || m > ModeOff {
		return []byte(strconv.Itoa(int(m))), nil
	}
	return []byte(m.String()), nil
}

// UnmarshalText decodes a protection mode token, accepting the decimal
// fallback form MarshalText emits for out-of-range values.
func (m *Mode) UnmarshalText(b []byte) error {
	if n, err := strconv.Atoi(string(b)); err == nil {
		*m = Mode(n)
		return nil
	}
	v, err := ParseMode(string(b))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// Errors reported by descriptor validation.
var (
	ErrNotRingOwner  = errors.New("core: ring not registered to this domain")
	ErrForeignMemory = errors.New("core: descriptor references memory not owned by caller")
	ErrRingFull      = ring.ErrRingFull
	ErrZeroLength    = errors.New("core: descriptor has zero length")
	ErrRevoked       = errors.New("core: context has been revoked")
)

// pinned records one descriptor's page pins as a contiguous frame span
// — descriptors reference [Addr, Addr+Len), so the spanned frames are
// first..first+n-1 and the hot pin/unpin paths never materialize a
// frame slice.
type pinned struct {
	idx   uint32 // free-running ring index of the descriptor
	first mem.PFN
	n     int32
}

// ringState is the hypervisor's per-ring protection bookkeeping.
type ringState struct {
	owner  mem.DomID
	r      *ring.Ring
	seq    *SeqAssigner
	pins   sim.FIFO[pinned] // ordered by idx
	active bool
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
		for _, pfn := range mem.RangePFNs(r.Base, r.Bytes()) {
			if err := p.Mem.SetHypExclusive(pfn, true); err != nil {
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
		pin := st.pins.Pop()
		for i := int32(0); i < pin.n; i++ {
			p.Mem.Put(pin.first + mem.PFN(i))
		}
	}
	st.active = false
	if p.Mode == ModeHypercall {
		for _, pfn := range mem.RangePFNs(r.Base, r.Bytes()) {
			p.Mem.SetHypExclusive(pfn, false)
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
// descriptors the NIC has consumed — the paper's lazy reap), then for
// each descriptor verifies that every referenced page is owned by the
// caller, pins the pages, assigns the next sequence number, writes the
// descriptor into the ring with hypervisor-exclusive access, and finally
// publishes the batch. On any validation failure nothing from the batch
// is published.
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
	for _, d := range descs {
		first, npg := mem.RangeSpan(d.Addr, int(d.Len))
		for i := 0; i < npg; i++ {
			p.Mem.Get(first + mem.PFN(i))
			p.PinnedPages.Inc()
		}
		d.Seq = st.seq.Assign()
		d.Flags |= ring.FlagValid
		if err := r.WriteDesc(p.Mem, mem.DomHyp, idx, d); err != nil {
			// Unreachable for registered rings; fail closed.
			for i := 0; i < npg; i++ {
				p.Mem.Put(first + mem.PFN(i))
			}
			return 0, err
		}
		st.pins.Push(pinned{idx: idx, first: first, n: int32(npg)})
		idx++
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
	for st.pins.Len() > 0 {
		// Free-running indices: pin.idx is complete when it is strictly
		// below cons in free-running terms.
		pin := st.pins.Peek()
		if int32(cons-pin.idx) <= 0 {
			break
		}
		for i := int32(0); i < pin.n; i++ {
			p.Mem.Put(pin.first + mem.PFN(i))
		}
		st.pins.Pop()
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
