package core

import (
	"testing"
	"testing/quick"

	"cdna/internal/mem"
)

func newBV(t *testing.T, entries int) (*mem.Memory, *BitVectorQueue) {
	t.Helper()
	m := mem.New()
	base := m.AllocRun(mem.DomHyp, 1).Base()
	q, err := NewBitVectorQueue(m, base, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m, q
}

func TestBitVecPostDrain(t *testing.T) {
	_, q := newBV(t, 8)
	q.Accumulate(0)
	q.Accumulate(5)
	q.Accumulate(31)
	vec, ok := q.Post()
	if !ok || vec != (1|1<<5|1<<31) {
		t.Fatalf("Post = %#x, %v", vec, ok)
	}
	bits, n := q.Drain()
	if n != 1 || bits != vec {
		t.Fatalf("Drain = %#x, %d", bits, n)
	}
}

func TestBitVecEmptyPost(t *testing.T) {
	_, q := newBV(t, 8)
	if _, ok := q.Post(); ok {
		t.Fatal("empty post must fail")
	}
	if bits, n := q.Drain(); bits != 0 || n != 0 {
		t.Fatal("empty drain must return nothing")
	}
}

func TestBitVecMultipleVectorsORed(t *testing.T) {
	_, q := newBV(t, 8)
	q.Accumulate(1)
	q.Post()
	q.Accumulate(2)
	q.Post()
	bits, n := q.Drain()
	if n != 2 || bits != (1<<1|1<<2) {
		t.Fatalf("Drain = %#x, %d", bits, n)
	}
}

// TestBitVecNeverOverwritesUnconsumed verifies the §3.2
// producer/consumer protocol: when the circular buffer fills, the NIC
// holds bits locally rather than overwriting an unprocessed vector, and
// no update is ever lost.
func TestBitVecNeverOverwritesUnconsumed(t *testing.T) {
	_, q := newBV(t, 4)
	for i := 0; i < 4; i++ {
		q.Accumulate(i)
		if _, ok := q.Post(); !ok {
			t.Fatalf("post %d failed with space available", i)
		}
	}
	q.Accumulate(9)
	if _, ok := q.Post(); ok {
		t.Fatal("post into a full buffer must be refused")
	}
	if q.Merged.Total() != 1 {
		t.Fatalf("Merged = %d", q.Merged.Total())
	}
	if !q.Pending() {
		t.Fatal("bits must remain pending after refused post")
	}
	bits, n := q.Drain()
	if n != 4 || bits != 0xf {
		t.Fatalf("Drain = %#x, %d", bits, n)
	}
	// Now the held bits go through.
	vec, ok := q.Post()
	if !ok || vec != 1<<9 {
		t.Fatalf("retry post = %#x, %v", vec, ok)
	}
	bits, _ = q.Drain()
	if bits != 1<<9 {
		t.Fatal("held bits lost")
	}
}

func TestBitVecWrapsAround(t *testing.T) {
	_, q := newBV(t, 4)
	for round := 0; round < 10; round++ {
		q.Accumulate(round % 32)
		if _, ok := q.Post(); !ok {
			t.Fatalf("post failed on round %d", round)
		}
		bits, n := q.Drain()
		if n != 1 || bits != 1<<uint(round%32) {
			t.Fatalf("round %d: %#x, %d", round, bits, n)
		}
	}
}

func TestBitVecRequiresHypMemory(t *testing.T) {
	m := mem.New()
	base := m.AllocRun(guestA, 1).Base()
	if _, err := NewBitVectorQueue(m, base, 8); err != ErrForeignMemory {
		t.Fatalf("err = %v, want ErrForeignMemory", err)
	}
}

func TestBitVecNonPowerOfTwo(t *testing.T) {
	m := mem.New()
	base := m.AllocRun(mem.DomHyp, 1).Base()
	if _, err := NewBitVectorQueue(m, base, 6); err == nil {
		t.Fatal("non-power-of-two entries accepted")
	}
}

// Property: every accumulated context bit is eventually visible to
// exactly one Drain, regardless of post/drain interleaving.
func TestBitVecNoLostUpdatesProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		m := mem.New()
		base := m.AllocRun(mem.DomHyp, 1).Base()
		q, _ := NewBitVectorQueue(m, base, 4)
		accumulated := uint32(0) // bits sent in
		drained := uint32(0)     // bits seen by host
		for _, op := range ops {
			switch op % 3 {
			case 0:
				ctx := int(op>>2) % 32
				q.Accumulate(ctx)
				accumulated |= 1 << uint(ctx)
			case 1:
				q.Post()
			case 2:
				bits, _ := q.Drain()
				drained |= bits
			}
		}
		q.Post()
		// A full buffer can require one more drain+post round.
		bits, _ := q.Drain()
		drained |= bits
		q.Post()
		bits, _ = q.Drain()
		drained |= bits
		return drained == accumulated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
