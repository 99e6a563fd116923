package ether

import "testing"

// fakePayload implements PayloadRef with observable counters, standing
// in for a pooled transport segment.
type fakePayload struct {
	retains, releases int
}

func (p *fakePayload) RetainPayload()  { p.retains++ }
func (p *fakePayload) ReleasePayload() { p.releases++ }

func TestArenaRecyclesFrames(t *testing.T) {
	a := NewArena()
	src, dst := MakeMAC(0, 1), MakeMAC(0, 2)

	f1 := a.Get(src, dst, 1514, nil)
	if !f1.Pooled() {
		t.Fatal("arena frame reports Pooled() == false")
	}
	if a.Gets != 1 || a.News != 1 || a.Puts != 0 {
		t.Fatalf("after first Get: Gets=%d News=%d Puts=%d", a.Gets, a.News, a.Puts)
	}
	f1.Release()
	if a.Puts != 1 || a.FreeLen() != 1 {
		t.Fatalf("after Release: Puts=%d FreeLen=%d", a.Puts, a.FreeLen())
	}

	f2 := a.Get(dst, src, 60, nil)
	if f2 != f1 {
		t.Fatal("second Get did not recycle the freed frame")
	}
	if a.News != 1 {
		t.Fatalf("recycled Get missed the free list: News=%d", a.News)
	}
	if f2.Src != dst || f2.Dst != src || f2.Size != 60 {
		t.Fatalf("recycled frame kept stale header: %+v", f2)
	}
	f2.Release()
}

func TestArenaRefCounting(t *testing.T) {
	a := NewArena()
	f := a.Get(MakeMAC(0, 1), MakeMAC(0, 2), 100, nil)
	f.Retain() // second holder (e.g. driver slot table)
	f.Release()
	if a.FreeLen() != 0 {
		t.Fatal("frame freed while a reference was still held")
	}
	f.Release()
	if a.FreeLen() != 1 {
		t.Fatal("last Release did not return the frame to the arena")
	}
}

func TestArenaReleasesPayloadOnFree(t *testing.T) {
	a := NewArena()
	p := &fakePayload{}
	f := a.Get(MakeMAC(0, 1), MakeMAC(0, 2), 100, p)
	f.Retain()
	f.Release()
	if p.releases != 0 {
		t.Fatal("payload released while the frame was still live")
	}
	f.Release()
	if p.releases != 1 {
		t.Fatalf("payload released %d times on frame free, want 1", p.releases)
	}
	if f.Payload != nil {
		t.Fatal("freed frame kept its payload pointer")
	}
}

func TestArenaUseAfterFreePanics(t *testing.T) {
	a := NewArena()
	f := a.Get(MakeMAC(0, 1), MakeMAC(0, 2), 100, nil)
	f.Release()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a released frame did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Retain", f.Retain)
	mustPanic("Release", f.Release)
}

func TestUnpooledFrameRefOpsAreNoops(t *testing.T) {
	f := &Frame{Src: MakeMAC(0, 1), Dst: MakeMAC(0, 2), Size: 100}
	if f.Pooled() {
		t.Fatal("literal frame reports Pooled() == true")
	}
	// Must not panic, must not mutate: the GC owns literal frames.
	f.Retain()
	f.Release()
	f.Release()
}

func TestHandleDetectsRecycle(t *testing.T) {
	a := NewArena()
	f := a.Get(MakeMAC(0, 1), MakeMAC(0, 2), 100, nil)
	h := f.Handle()
	if !h.Valid() || h.Frame() != f {
		t.Fatal("fresh handle invalid")
	}
	f.Release()
	if h.Valid() {
		t.Fatal("handle still valid after frame release")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Frame() on a stale handle did not panic")
		}
	}()
	_ = h.Frame()
}
