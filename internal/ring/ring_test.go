package ring

import (
	"testing"
	"testing/quick"

	"cdna/internal/mem"
)

const guest = mem.Dom0 + 1

func newRing(t *testing.T, entries int) (*mem.Memory, *Ring) {
	t.Helper()
	m := mem.New()
	pages := (entries*DefaultLayout.Size + mem.PageSize - 1) / mem.PageSize
	pfns := m.Alloc(guest, pages)
	r, err := New("tx", DefaultLayout, pfns[0].Base(), entries)
	if err != nil {
		t.Fatal(err)
	}
	return m, r
}

func TestLayoutValidate(t *testing.T) {
	if err := DefaultLayout.Validate(); err != nil {
		t.Fatalf("default layout invalid: %v", err)
	}
	bad := []Layout{
		{Size: 8, AddrOff: 0, LenOff: 0, FlagsOff: 0, SeqOff: -1},
		{Size: 16, AddrOff: 12, LenOff: 0, FlagsOff: 2, SeqOff: -1},  // addr spills
		{Size: 16, AddrOff: 0, LenOff: 15, FlagsOff: 8, SeqOff: -1},  // len spills
		{Size: 16, AddrOff: 0, LenOff: 8, FlagsOff: 15, SeqOff: -1},  // flags spill
		{Size: 16, AddrOff: 0, LenOff: 8, FlagsOff: 10, SeqOff: 13},  // seq spills
		{Size: 16, AddrOff: -1, LenOff: 8, FlagsOff: 10, SeqOff: 12}, // negative
	}
	for i, l := range bad {
		if l.Validate() == nil {
			t.Errorf("bad layout %d validated", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(addr uint64, length uint16, flags uint16, seq uint32) bool {
		d := Desc{Addr: mem.Addr(addr), Len: length, Flags: flags, Seq: seq}
		got, err := DefaultLayout.Decode(DefaultLayout.Encode(d))
		return err == nil && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if _, err := DefaultLayout.Decode(make([]byte, 8)); err == nil {
		t.Fatal("short buffer must fail to decode")
	}
}

func TestLayoutWithoutSeq(t *testing.T) {
	l := Layout{Size: 12, AddrOff: 0, LenOff: 8, FlagsOff: 10, SeqOff: -1}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	d := Desc{Addr: 0x1234, Len: 99, Flags: FlagTx, Seq: 7}
	got, err := l.Decode(l.Encode(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 0 {
		t.Fatal("seq must be dropped by a layout without a seq field")
	}
	if got.Addr != d.Addr || got.Len != d.Len || got.Flags != d.Flags {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

func TestNewRejectsNonPowerOfTwo(t *testing.T) {
	m := mem.New()
	base := m.AllocRun(guest, 1).Base()
	for _, n := range []int{0, -1, 3, 100} {
		if _, err := New("x", DefaultLayout, base, n); err == nil {
			t.Errorf("entries=%d accepted", n)
		}
	}
}

func TestProducerConsumerProtocol(t *testing.T) {
	_, r := newRing(t, 8)
	if r.Avail() != 0 || r.Space() != 8 || r.Full() {
		t.Fatal("fresh ring state wrong")
	}
	if err := r.Publish(5); err != nil {
		t.Fatal(err)
	}
	if r.Avail() != 5 || r.Space() != 3 {
		t.Fatalf("avail=%d space=%d", r.Avail(), r.Space())
	}
	if err := r.Publish(4); err != ErrRingFull {
		t.Fatalf("overfill err = %v", err)
	}
	if err := r.Consume(5); err != nil {
		t.Fatal(err)
	}
	if err := r.Consume(1); err != ErrRingEmpty {
		t.Fatalf("over-consume err = %v", err)
	}
}

func TestIndicesWrapFreeRunning(t *testing.T) {
	_, r := newRing(t, 4)
	for i := 0; i < 100; i++ {
		if err := r.Publish(1); err != nil {
			t.Fatal(err)
		}
		if err := r.Consume(1); err != nil {
			t.Fatal(err)
		}
	}
	if r.Prod() != 100 || r.Cons() != 100 {
		t.Fatalf("prod=%d cons=%d", r.Prod(), r.Cons())
	}
	if r.SlotAddr(100) != r.SlotAddr(0) {
		t.Fatal("slot addresses must wrap mod entries")
	}
}

func TestWriteReadDescThroughMemory(t *testing.T) {
	m, r := newRing(t, 8)
	d := Desc{Addr: 0xabcd000, Len: 1514, Flags: FlagTx | FlagEOP | FlagValid, Seq: 42}
	if err := r.WriteDesc(m, guest, 3, d); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadDesc(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("got %+v want %+v", got, d)
	}
	// Index 3+8 maps to the same slot.
	got2, _ := r.ReadDesc(m, 11)
	if got2 != d {
		t.Fatal("wrapped index read a different slot")
	}
}

func TestHypExclusiveRingWrite(t *testing.T) {
	m, r := newRing(t, 8)
	first, n := mem.RangeSpan(r.Base, r.Bytes())
	for i := range mem.PFN(n) {
		m.SetHypExclusive(first+i, true)
	}
	d := Desc{Addr: 0x1000, Len: 64, Seq: 1}
	if err := r.WriteDesc(m, guest, 0, d); err != mem.ErrHypExclusive {
		t.Fatalf("guest ring write err = %v, want ErrHypExclusive", err)
	}
	if err := r.WriteDesc(m, mem.DomHyp, 0, d); err != nil {
		t.Fatalf("hypervisor ring write failed: %v", err)
	}
}

// Property: producer/consumer indices never cross under random
// publish/consume sequences.
func TestRingIndexInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		m := mem.New()
		base := m.AllocRun(guest, 1).Base()
		r, _ := New("p", DefaultLayout, base, 16)
		for _, op := range ops {
			n := int(op&7) + 1
			if op&8 == 0 {
				if n <= r.Space() {
					if r.Publish(n) != nil {
						return false
					}
				} else if r.Publish(n) != ErrRingFull {
					return false
				}
			} else {
				if n <= r.Avail() {
					if r.Consume(n) != nil {
						return false
					}
				} else if r.Consume(n) != ErrRingEmpty {
					return false
				}
			}
			if r.Avail() < 0 || r.Avail() > r.Entries {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
