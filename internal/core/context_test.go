package core

import (
	"testing"

	"cdna/internal/ether"
	"cdna/internal/mem"
	"cdna/internal/ring"
)

func newCM(t *testing.T) (*mem.Memory, *Protection, *ContextManager) {
	t.Helper()
	m := mem.New()
	p := NewProtection(m, ModeHypercall)
	return m, p, NewContextManager(p)
}

func mkRings(t *testing.T, m *mem.Memory, dom mem.DomID) (*ring.Ring, *ring.Ring) {
	t.Helper()
	tx, err := ring.New("tx", ring.DefaultLayout, m.AllocRun(dom, 1).Base(), 64)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := ring.New("rx", ring.DefaultLayout, m.AllocRun(dom, 1).Base(), 64)
	if err != nil {
		t.Fatal(err)
	}
	return tx, rx
}

func TestAssignContexts(t *testing.T) {
	m, _, cm := newCM(t)
	tx, rx := mkRings(t, m, guestA)
	ctx, err := cm.Assign(guestA, ether.MakeMAC(1, 1), tx, rx)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.ID != 0 || !ctx.Active || ctx.Owner != guestA {
		t.Fatalf("context: %+v", ctx)
	}
	if cm.Lookup(0) != ctx || cm.Assigned() != 1 {
		t.Fatal("lookup/assigned wrong")
	}
	// Sequence space obeys the 2x rule.
	if ctx.TxSeq.Space() < uint32(2*tx.Entries) {
		t.Fatalf("seq space %d < 2x ring size", ctx.TxSeq.Space())
	}
}

func TestAssignExhaustion(t *testing.T) {
	m, _, cm := newCM(t)
	for i := 0; i < NumContexts; i++ {
		dom := mem.DomID(int(guestA) + i)
		tx, rx := mkRings(t, m, dom)
		if _, err := cm.Assign(dom, ether.MakeMAC(1, i), tx, rx); err != nil {
			t.Fatalf("assign %d: %v", i, err)
		}
	}
	tx, rx := mkRings(t, m, guestA)
	if _, err := cm.Assign(guestA, ether.MakeMAC(2, 0), tx, rx); err != ErrNoFreeContext {
		t.Fatalf("err = %v, want ErrNoFreeContext", err)
	}
}

func TestRevokeFreesSlotAndRings(t *testing.T) {
	m, p, cm := newCM(t)
	tx, rx := mkRings(t, m, guestA)
	ctx, _ := cm.Assign(guestA, ether.MakeMAC(1, 1), tx, rx)
	revoked := false
	cm.OnRevoke = func(c *Context) { revoked = c == ctx }
	if err := cm.Revoke(ctx); err != nil {
		t.Fatal(err)
	}
	if !revoked || ctx.Active || cm.Assigned() != 0 {
		t.Fatal("revoke did not clean up")
	}
	if p.Registered(tx) || p.Registered(rx) {
		t.Fatal("rings still registered after revoke")
	}
	if err := cm.Revoke(ctx); err != ErrNotAssigned {
		t.Fatalf("double revoke err = %v", err)
	}
	// The slot is reusable.
	tx2, rx2 := mkRings(t, m, guestB)
	ctx2, err := cm.Assign(guestB, ether.MakeMAC(1, 2), tx2, rx2)
	if err != nil || ctx2.ID != 0 {
		t.Fatalf("slot not reused: %v, %v", ctx2, err)
	}
}

func TestHandleFaultRevokes(t *testing.T) {
	m, _, cm := newCM(t)
	tx, rx := mkRings(t, m, guestA)
	ctx, _ := cm.Assign(guestA, ether.MakeMAC(1, 1), tx, rx)
	f := &Fault{ContextID: ctx.ID, Owner: guestA, Reason: FaultSeqMismatch}
	if f.Error() == "" || f.Reason.String() == "" {
		t.Fatal("fault formatting broken")
	}
	cm.HandleFault(f)
	if !ctx.Faulted || ctx.Active || cm.Assigned() != 0 {
		t.Fatal("fault did not revoke context")
	}
	// Faults on bogus or freed slots are ignored.
	cm.HandleFault(&Fault{ContextID: 99})
	cm.HandleFault(&Fault{ContextID: ctx.ID})
}

func TestAssignRegisterFailureRollsBack(t *testing.T) {
	m, p, cm := newCM(t)
	tx, _ := mkRings(t, m, guestA)
	// rx ring owned by another domain: second registration fails and the
	// first must be rolled back.
	rxForeign, _ := ring.New("rx", ring.DefaultLayout, m.AllocRun(guestB, 1).Base(), 64)
	if _, err := cm.Assign(guestA, ether.MakeMAC(1, 1), tx, rxForeign); err == nil {
		t.Fatal("assign with foreign rx ring accepted")
	}
	if p.Registered(tx) {
		t.Fatal("tx ring leaked after rollback")
	}
	if cm.Assigned() != 0 {
		t.Fatal("context leaked after rollback")
	}
}

func TestConstantsMatchPaper(t *testing.T) {
	if NumContexts != 32 {
		t.Fatal("the RiceNIC provides 32 contexts")
	}
	if MailboxesPerContext != 24 {
		t.Fatal("each context exposes 24 mailboxes")
	}
	if ContextPartitionBytes != 4096 {
		t.Fatal("context partitions are one host page")
	}
}
