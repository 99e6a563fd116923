package mem

// PageState is one physical page's checkpoint image. Data is nil when
// the page has never been written (the allocator's lazy-zero state),
// which keeps snapshots of mostly-untouched memory small.
type PageState struct {
	Owner   DomID
	Ref     int
	Freed   bool
	HypOnly bool
	Data    []byte
}

// State is the whole physical memory's checkpoint image. Pages is
// indexed by PFN with entry 0 unused, mirroring the page table.
type State struct {
	Pages     []PageState
	FreeQ     []PFN
	NextPFN   PFN
	DevWrites []uint64
}

// State captures the memory: ownership, refcounts, protection bits, and
// byte contents of every page. Page data is copied so the snapshot is
// immune to later DMA writes.
func (m *Memory) State() State {
	s := State{
		Pages:     make([]PageState, m.npages),
		FreeQ:     append([]PFN(nil), m.freeQ...),
		NextPFN:   m.nextPFN,
		DevWrites: append([]uint64(nil), m.devWrites...),
	}
	// A fresh memory has no chunk yet; its lone entry 0 stays zero.
	for c, ch := range m.chunks {
		for j := range ch {
			i := PFN(c<<chunkShift + j)
			if i >= m.npages {
				break
			}
			pg := &ch[j]
			ps := PageState{Owner: DomID(pg.owner), Ref: int(pg.ref), Freed: pg.freed, HypOnly: pg.hypOnly}
			if pg.data != 0 {
				ps.Data = append([]byte(nil), m.data[pg.data-1]...)
			}
			s.Pages[i] = ps
		}
	}
	return s
}

// SetState restores the memory from a State image, replacing the entire
// page table. The restored machine's construction-time allocations are
// overwritten wholesale — the image is authoritative.
func (m *Memory) SetState(s State) {
	m.chunks, m.npages, m.data = nil, 0, nil
	for i := range s.Pages {
		ps := &s.Pages[i]
		pg := m.appendPage()
		*pg = page{owner: ownerOf(ps.Owner), ref: int32(ps.Ref), freed: ps.Freed, hypOnly: ps.HypOnly}
		if ps.Data != nil {
			copy(m.pageData(pg), ps.Data)
		}
	}
	m.freeQ = append(m.freeQ[:0], s.FreeQ...)
	m.nextPFN = s.NextPFN
	m.devWrites = append(m.devWrites[:0], s.DevWrites...)
}
