package guest

import (
	"math/rand"
	"strings"
	"testing"

	"cdna/internal/mem"
)

// held returns the page the pool holds at ring index idx, or 0 for an
// empty slot.
func (p *bufPool) held(idx uint32) mem.PFN {
	if s := p.slots[slot(idx)]; s != 0 {
		return p.base + mem.PFN(s-1)
	}
	return 0
}

// slicePool is the model: a driver pool as a []mem.PFN from mem.Alloc,
// popped from its end and appended to, with a slot table of frames.
type slicePool struct {
	free  []mem.PFN
	slots [RingEntries]mem.PFN
}

func (s *slicePool) pop() mem.PFN {
	pfn := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return pfn
}

func (s *slicePool) reap(idx uint32) {
	if pfn := s.slots[slot(idx)]; pfn != 0 {
		s.free = append(s.free, pfn)
		s.slots[slot(idx)] = 0
	}
}

// TestPoolMatchesSliceModel runs random streams of pops, puts, holds
// and reaps against the pool and the slice model. Both start from the
// same frames (the pool's run from AllocRun, the model's slice from
// Alloc on an identical memory), and after every step they must agree
// on the popped frame, the whole free stack and every slot.
func TestPoolMatchesSliceModel(t *testing.T) {
	const dom = mem.Dom0 + 1
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pm, sm := mem.New(), mem.New()
		if pre := rng.Intn(3000); pre > 0 {
			pm.Alloc(dom, pre)
			sm.Alloc(dom, pre)
		}
		var p bufPool
		p.init(pm, dom)
		s := &slicePool{free: sm.Alloc(dom, PoolPages)}
		var out []mem.PFN // popped, neither put back nor held
		idx := rng.Uint32()
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 4 && p.Len() > 0:
				got, want := p.pop(), s.pop()
				if got != want {
					t.Fatalf("seed %d step %d: pop = %d, model %d", seed, step, got, want)
				}
				out = append(out, got)
			case op < 5 && len(out) > 0:
				i := rng.Intn(len(out))
				pfn := out[i]
				out = append(out[:i], out[i+1:]...)
				p.put(pfn)
				s.free = append(s.free, pfn)
			case op < 7 && len(out) > 0:
				// Post at a slot the driver's window would reach: the
				// next few free-running indices, wrapping at 2^32.
				at := idx + uint32(rng.Intn(2*RingEntries))
				pfn := out[len(out)-1]
				out = out[:len(out)-1]
				if old := s.slots[slot(at)]; old != 0 {
					out = append(out, old) // overwritten: no longer held
				}
				p.hold(at, pfn)
				s.slots[slot(at)] = pfn
			default:
				at := idx + uint32(rng.Intn(2*RingEntries))
				p.reap(at)
				s.reap(at)
				if rng.Intn(4) == 0 {
					idx += uint32(rng.Intn(RingEntries))
				}
			}
			if p.Len() != len(s.free) {
				t.Fatalf("seed %d step %d: %d free, model %d", seed, step, p.Len(), len(s.free))
			}
			for i, want := range s.free {
				if got := p.base + mem.PFN(p.free[i]); got != want {
					t.Fatalf("seed %d step %d: free[%d] = %d, model %d", seed, step, i, got, want)
				}
			}
			for i := uint32(0); i < RingEntries; i++ {
				if got, want := p.held(i), s.slots[i]; got != want {
					t.Fatalf("seed %d step %d: slot %d holds %d, model %d", seed, step, i, got, want)
				}
			}
		}
	}
}

// TestPoolRefusesForeignPage checks that a frame outside the pool's run
// cannot be put back or held: its 16-bit offset would name another page.
func TestPoolRefusesForeignPage(t *testing.T) {
	m := mem.New()
	var p bufPool
	p.init(m, mem.Dom0+1)
	for name, f := range map[string]func(){
		"put below":  func() { p.put(p.base - 1) },
		"put above":  func() { p.put(p.base + PoolPages) },
		"hold above": func() { p.hold(0, p.base+PoolPages) },
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "outside the buffer pool run") {
					t.Errorf("%s: recovered %q, want a pool-run panic", name, r)
				}
			}()
			f()
		}()
	}
}
