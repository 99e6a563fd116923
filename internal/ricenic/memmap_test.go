package ricenic

import (
	"testing"
	"testing/quick"

	"cdna/internal/ether"
	"cdna/internal/ring"
	"cdna/internal/sim"
)

func TestMemoryMapMatchesPaper(t *testing.T) {
	if SRAMBytes != 2<<20 {
		t.Fatal("the RiceNIC carries 2 MB of SRAM")
	}
	if PartitionedBytes != 128<<10 {
		t.Fatal("128 KB of SRAM is divided into context partitions")
	}
	if PartitionBytes != 4096 {
		t.Fatal("each partition is one host page")
	}
	// "only 12 MB of memory on the NIC is needed to support 32 contexts"
	if TotalContextMemory(32) != 12<<20 {
		t.Fatalf("TotalContextMemory(32) = %d, want 12 MB", TotalContextMemory(32))
	}
}

func TestDecodePIO(t *testing.T) {
	cases := []struct {
		addr PIOAddr
		ctx  int
		mbox int
	}{
		{0, 0, 0},                    // context 0, mailbox 0
		{4, 0, 1},                    // context 0, mailbox 1
		{23 * 4, 0, 23},              // last mailbox
		{24 * 4, 0, -1},              // just past the mailboxes: shared memory
		{MailboxPIOAddr(7, 5), 7, 5}, // helper round-trip
		{PIOAddr(31*PartitionBytes + 2000), 31, -1}, // shared memory, last context
		{2, 0, -1}, // unaligned: not a mailbox word
	}
	for _, c := range cases {
		ctx, mbox, err := DecodePIO(c.addr)
		if err != nil {
			t.Fatalf("addr %#x: %v", uint32(c.addr), err)
		}
		if ctx != c.ctx || mbox != c.mbox {
			t.Errorf("DecodePIO(%#x) = (%d, %d), want (%d, %d)", uint32(c.addr), ctx, mbox, c.ctx, c.mbox)
		}
	}
	if _, _, err := DecodePIO(PartitionedBytes); err == nil {
		t.Fatal("address beyond the partitioned window must be invalid")
	}
}

// Property: MailboxPIOAddr and DecodePIO are inverses over the whole
// valid space.
func TestPIOAddrRoundTrip(t *testing.T) {
	f := func(c, m uint8) bool {
		ctx, mbox := int(c)%32, int(m)%NumMailboxes
		gotCtx, gotMbox, err := DecodePIO(MailboxPIOAddr(ctx, mbox))
		return err == nil && gotCtx == ctx && gotMbox == mbox
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPIOWriteTriggersMailboxEvent(t *testing.T) {
	r := newRig(t, DefaultParams())
	frames := map[uint32]*ether.Frame{}
	r.n.AttachContext(r.ctxA, func(idx uint32) *ether.Frame { return frames[idx] })
	// A write into the partition's shared memory area: no event.
	if err := r.n.PIOWrite(MailboxPIOAddr(r.ctxA.ID, 0)+PIOAddr(NumMailboxes*4), 1); err != nil {
		t.Fatal(err)
	}
	if r.n.Mbox.Pending() {
		t.Fatal("shared-memory PIO generated a mailbox event")
	}
	// A PIO store to the tx-producer mailbox word behaves exactly like
	// MailboxWrite: descriptors flow and frames transmit.
	r.enqueuePIO(t, frames, 3)
	r.eng.Run(10 * sim.Millisecond)
	if len(r.out) != 3 {
		t.Fatalf("transmitted %d frames via address-decoded PIO, want 3", len(r.out))
	}
	// Out-of-window PIO is rejected.
	if err := r.n.PIOWrite(PartitionedBytes+4, 9); err == nil {
		t.Fatal("PIO outside the SRAM window accepted")
	}
}

// enqueuePIO mirrors rig.enqueue but kicks via the address-decoded PIO
// path.
func (r *rig) enqueuePIO(t *testing.T, frames map[uint32]*ether.Frame, n int) {
	t.Helper()
	descs := make([]ring.Desc, n)
	base := r.ctxA.TxRing.Prod()
	for i := range descs {
		buf := r.m.AllocRun(guestA, 1)
		descs[i] = ring.Desc{Addr: buf.Base(), Len: 1514, Flags: ring.FlagTx}
		frames[base+uint32(i)] = &ether.Frame{Src: r.ctxA.MAC, Size: 1514}
	}
	if _, err := r.prot.Enqueue(guestA, r.ctxA.TxRing, descs); err != nil {
		t.Fatal(err)
	}
	if err := r.n.PIOWrite(MailboxPIOAddr(r.ctxA.ID, MboxTxProd), r.ctxA.TxRing.Prod()); err != nil {
		t.Fatal(err)
	}
}
