package guest

import (
	"fmt"
	"slices"

	"cdna/internal/ether"
	"cdna/internal/mem"
	"cdna/internal/ring"
	"cdna/internal/stats"
	"cdna/internal/transport"
)

// This file is the checkpoint layer for the guest drivers and stack.
// Driver-side ring producer/consumer indices are restored by the NIC
// engine (the rings are shared objects); what lives here is the
// driver's own bookkeeping: buffer pools, slot tables, backlogs and
// in-flight batches. Recycling free lists (stagedFree/descFree) restore
// empty — they are never observable.

// SlotFrame is one occupied slot of a nil-holed frame table.
type SlotFrame struct {
	Slot  uint32
	Frame ether.FrameState
}

// IdxPFN is one occupied slot of a buffer-page table, keyed by its
// free-running ring index and serialized sorted by it for determinism.
type IdxPFN struct {
	Idx uint32
	PFN mem.PFN
}

// StagedPktState is one staged transmit packet.
type StagedPktState struct {
	Desc  ring.Desc
	Frame ether.FrameState
	Pfn   mem.PFN
}

// EnqOpState is one descriptor batch in flight through its enqueue call.
type EnqOpState struct {
	Tx    bool
	Batch []StagedPktState
	Descs []ring.Desc
	N     int
}

// CDNADriverState is the CDNA guest driver's checkpoint image.
type CDNADriverState struct {
	TxPool, RxPool []mem.PFN
	TxBufs, RxBufs []mem.PFN // RingEntries slots; PFN 0 = empty
	Inflight       []SlotFrame

	Backlog  []ether.FrameState
	StagedTx []StagedPktState
	StagedRx int
	EnqTx    bool
	EnqRx    bool

	LastTxCons, LastRxCons uint32
	EnqOps                 []EnqOpState

	TxIn, RxUp []ether.FrameState

	TxDropped   stats.CounterState
	EnqueueErrs stats.CounterState
}

func captureStaged(batch []stagedPkt, codec ether.PayloadCodec) ([]StagedPktState, error) {
	if batch == nil {
		return nil, nil
	}
	out := make([]StagedPktState, len(batch))
	for i, s := range batch {
		fs, err := ether.CaptureFrame(s.frame, codec)
		if err != nil {
			return nil, err
		}
		out[i] = StagedPktState{Desc: s.desc, Frame: fs, Pfn: s.pfn}
	}
	return out, nil
}

func restoreStaged(ss []StagedPktState, codec ether.PayloadCodec) ([]stagedPkt, error) {
	if ss == nil {
		return nil, nil
	}
	out := make([]stagedPkt, len(ss))
	for i, s := range ss {
		f, err := ether.RestoreFrame(s.Frame, codec)
		if err != nil {
			return nil, err
		}
		out[i] = stagedPkt{desc: s.Desc, frame: f, pfn: s.Pfn}
	}
	return out, nil
}

// State captures the driver.
func (d *CDNADriver) State(codec ether.PayloadCodec) (CDNADriverState, error) {
	s := CDNADriverState{
		TxPool:      append([]mem.PFN(nil), d.txPool...),
		RxPool:      append([]mem.PFN(nil), d.rxPool...),
		TxBufs:      append([]mem.PFN(nil), d.txBufs...),
		RxBufs:      append([]mem.PFN(nil), d.rxBufs...),
		StagedRx:    d.stagedRx,
		EnqTx:       d.enqTx,
		EnqRx:       d.enqRx,
		LastTxCons:  d.lastTxCons,
		LastRxCons:  d.lastRxCons,
		TxDropped:   d.TxDropped.State(),
		EnqueueErrs: d.EnqueueErrs.State(),
	}
	for i, f := range d.inflight {
		if f == nil {
			continue
		}
		fs, err := ether.CaptureFrame(f, codec)
		if err != nil {
			return CDNADriverState{}, err
		}
		s.Inflight = append(s.Inflight, SlotFrame{Slot: uint32(i), Frame: fs})
	}
	var err error
	if s.Backlog, err = ether.CaptureFrameFIFO(&d.backlog, codec); err != nil {
		return CDNADriverState{}, err
	}
	if s.StagedTx, err = captureStaged(d.stagedTx, codec); err != nil {
		return CDNADriverState{}, err
	}
	s.EnqOps = make([]EnqOpState, d.enqOps.Len())
	for i := 0; i < d.enqOps.Len(); i++ {
		op := d.enqOps.At(i)
		batch, err := captureStaged(op.batch, codec)
		if err != nil {
			return CDNADriverState{}, err
		}
		s.EnqOps[i] = EnqOpState{Tx: op.tx, Batch: batch,
			Descs: append([]ring.Desc(nil), op.descs...), N: op.n}
	}
	if s.TxIn, err = ether.CaptureFrameFIFO(&d.txIn, codec); err != nil {
		return CDNADriverState{}, err
	}
	if s.RxUp, err = ether.CaptureFrameFIFO(&d.rxUp, codec); err != nil {
		return CDNADriverState{}, err
	}
	return s, nil
}

// SetState restores the driver into a freshly built machine.
func (d *CDNADriver) SetState(s CDNADriverState, codec ether.PayloadCodec) error {
	if len(s.TxBufs) != len(d.txBufs) || len(s.RxBufs) != len(d.rxBufs) {
		return fmt.Errorf("guest: cdna slot-table size mismatch: snapshot has %d/%d, machine has %d/%d",
			len(s.TxBufs), len(s.RxBufs), len(d.txBufs), len(d.rxBufs))
	}
	d.txPool = append(d.txPool[:0], s.TxPool...)
	d.rxPool = append(d.rxPool[:0], s.RxPool...)
	copy(d.txBufs, s.TxBufs)
	copy(d.rxBufs, s.RxBufs)
	for i := range d.inflight {
		d.inflight[i] = nil
	}
	for _, sf := range s.Inflight {
		if sf.Slot >= uint32(len(d.inflight)) {
			return fmt.Errorf("guest: cdna inflight slot %d out of range", sf.Slot)
		}
		f, err := ether.RestoreFrame(sf.Frame, codec)
		if err != nil {
			return err
		}
		d.inflight[sf.Slot] = f
	}
	if err := ether.RestoreFrameFIFO(&d.backlog, s.Backlog, codec); err != nil {
		return err
	}
	var err error
	if d.stagedTx, err = restoreStaged(s.StagedTx, codec); err != nil {
		return err
	}
	d.stagedRx = s.StagedRx
	d.enqTx, d.enqRx = s.EnqTx, s.EnqRx
	d.lastTxCons, d.lastRxCons = s.LastTxCons, s.LastRxCons
	d.enqOps.Clear()
	for _, os := range s.EnqOps {
		batch, err := restoreStaged(os.Batch, codec)
		if err != nil {
			return err
		}
		d.enqOps.Push(enqOp{tx: os.Tx, batch: batch,
			descs: append([]ring.Desc(nil), os.Descs...), n: os.N})
	}
	if err := ether.RestoreFrameFIFO(&d.txIn, s.TxIn, codec); err != nil {
		return err
	}
	if err := ether.RestoreFrameFIFO(&d.rxUp, s.RxUp, codec); err != nil {
		return err
	}
	d.stagedFree = d.stagedFree[:0]
	d.descFree = d.descFree[:0]
	d.TxDropped.SetState(s.TxDropped)
	d.EnqueueErrs.SetState(s.EnqueueErrs)
	return nil
}

// NativeDriverState is the conventional driver's checkpoint image. The
// buffer and frame tables serialize as their occupied slots, keyed by
// free-running ring index and sorted by it.
type NativeDriverState struct {
	TxPool, RxPool []mem.PFN
	TxBufs, RxBufs []IdxPFN
	Inflight       []SlotFrame

	LastTxCons, LastRxCons uint32
	KickQueued             bool
	RxKickQueued           bool

	Backlog    []ether.FrameState
	TxIn, RxUp []ether.FrameState

	TxDropped stats.CounterState
}

// liveIdxs returns the free-running ring indices of a native-driver
// slot table's occupied slots, sorted. Live entries span at most
// RingEntries indices from the last reaped one, base, so each occupied
// slot names exactly one index in that window.
func liveIdxs[T comparable](tab *[RingEntries]T, base uint32) []uint32 {
	var empty T
	var out []uint32
	for i := uint32(0); i < RingEntries; i++ {
		if tab[slot(base+i)] != empty {
			out = append(out, base+i)
		}
	}
	slices.Sort(out) // out of window order only where the window wraps uint32
	return out
}

func capturePFNs(tab *[RingEntries]mem.PFN, base uint32) []IdxPFN {
	out := []IdxPFN{}
	for _, idx := range liveIdxs(tab, base) {
		out = append(out, IdxPFN{Idx: idx, PFN: tab[slot(idx)]})
	}
	return out
}

// State captures the driver.
func (d *NativeDriver) State(codec ether.PayloadCodec) (NativeDriverState, error) {
	s := NativeDriverState{
		TxPool:       append([]mem.PFN(nil), d.txPool...),
		RxPool:       append([]mem.PFN(nil), d.rxPool...),
		TxBufs:       capturePFNs(&d.txBufs, d.lastTxCons),
		RxBufs:       capturePFNs(&d.rxBufs, d.lastRxCons),
		LastTxCons:   d.lastTxCons,
		LastRxCons:   d.lastRxCons,
		KickQueued:   d.kickQueued,
		RxKickQueued: d.rxKickQueued,
		TxDropped:    d.TxDropped.State(),
	}
	for _, idx := range liveIdxs(&d.inflight, d.lastTxCons) {
		fs, err := ether.CaptureFrame(d.inflight[slot(idx)], codec)
		if err != nil {
			return NativeDriverState{}, err
		}
		s.Inflight = append(s.Inflight, SlotFrame{Slot: idx, Frame: fs})
	}
	var err error
	if s.Backlog, err = ether.CaptureFrameFIFO(&d.backlog, codec); err != nil {
		return NativeDriverState{}, err
	}
	if s.TxIn, err = ether.CaptureFrameFIFO(&d.txIn, codec); err != nil {
		return NativeDriverState{}, err
	}
	if s.RxUp, err = ether.CaptureFrameFIFO(&d.rxUp, codec); err != nil {
		return NativeDriverState{}, err
	}
	return s, nil
}

// SetState restores the driver into a freshly built machine.
func (d *NativeDriver) SetState(s NativeDriverState, codec ether.PayloadCodec) error {
	d.txPool = append(d.txPool[:0], s.TxPool...)
	d.rxPool = append(d.rxPool[:0], s.RxPool...)
	// Each slot holds one index of the live window; an index outside it
	// would alias another slot.
	inWindow := func(idx, base uint32) error {
		if idx-base >= RingEntries {
			return fmt.Errorf("guest: native ring index %d outside the live window from %d", idx, base)
		}
		return nil
	}
	d.txBufs, d.rxBufs, d.inflight = [RingEntries]mem.PFN{}, [RingEntries]mem.PFN{}, [RingEntries]*ether.Frame{}
	for _, e := range s.TxBufs {
		if err := inWindow(e.Idx, s.LastTxCons); err != nil {
			return err
		}
		d.txBufs[slot(e.Idx)] = e.PFN
	}
	for _, e := range s.RxBufs {
		if err := inWindow(e.Idx, s.LastRxCons); err != nil {
			return err
		}
		d.rxBufs[slot(e.Idx)] = e.PFN
	}
	for _, sf := range s.Inflight {
		if err := inWindow(sf.Slot, s.LastTxCons); err != nil {
			return err
		}
		f, err := ether.RestoreFrame(sf.Frame, codec)
		if err != nil {
			return err
		}
		d.inflight[slot(sf.Slot)] = f
	}
	d.lastTxCons, d.lastRxCons = s.LastTxCons, s.LastRxCons
	d.kickQueued, d.rxKickQueued = s.KickQueued, s.RxKickQueued
	if err := ether.RestoreFrameFIFO(&d.backlog, s.Backlog, codec); err != nil {
		return err
	}
	if err := ether.RestoreFrameFIFO(&d.txIn, s.TxIn, codec); err != nil {
		return err
	}
	if err := ether.RestoreFrameFIFO(&d.rxUp, s.RxUp, codec); err != nil {
		return err
	}
	d.TxDropped.SetState(s.TxDropped)
	return nil
}

// StackState is the network stack's checkpoint image. Queued segments
// serialize through the payload codec (they are exactly the payload
// type it handles); sender identity is creation order.
type StackState struct {
	UserAcc   int
	Delivered stats.CounterState
	Foreign   stats.CounterState
	RxQ       [][]byte
	Senders   [][][]byte
}

// State captures the stack.
func (s *Stack) State(codec ether.PayloadCodec) (StackState, error) {
	st := StackState{
		UserAcc:   s.userAcc,
		Delivered: s.Delivered.State(),
		Foreign:   s.Foreign.State(),
		RxQ:       make([][]byte, s.rxQ.Len()),
		Senders:   make([][][]byte, len(s.senders)),
	}
	for i := 0; i < s.rxQ.Len(); i++ {
		b, err := codec.EncodePayload(s.rxQ.At(i))
		if err != nil {
			return StackState{}, err
		}
		st.RxQ[i] = b
	}
	for i, sn := range s.senders {
		q := make([][]byte, sn.q.Len())
		for j := 0; j < sn.q.Len(); j++ {
			b, err := codec.EncodePayload(sn.q.At(j))
			if err != nil {
				return StackState{}, err
			}
			q[j] = b
		}
		st.Senders[i] = q
	}
	return st, nil
}

// SetState restores the stack into a freshly built machine with the
// same sender roster.
func (s *Stack) SetState(st StackState, codec ether.PayloadCodec) error {
	if len(st.Senders) != len(s.senders) {
		return fmt.Errorf("guest: sender roster mismatch: snapshot has %d, machine has %d",
			len(st.Senders), len(s.senders))
	}
	s.userAcc = st.UserAcc
	s.Delivered.SetState(st.Delivered)
	s.Foreign.SetState(st.Foreign)
	s.rxQ.Clear()
	for _, b := range st.RxQ {
		p, err := codec.DecodePayload(b)
		if err != nil {
			return err
		}
		seg, ok := p.(*transport.Segment)
		if !ok {
			return fmt.Errorf("guest: stack rx image decoded to %T, want segment", p)
		}
		s.rxQ.Push(seg)
	}
	for i, q := range st.Senders {
		sn := s.senders[i]
		sn.q.Clear()
		for _, b := range q {
			p, err := codec.DecodePayload(b)
			if err != nil {
				return err
			}
			seg, ok := p.(*transport.Segment)
			if !ok {
				return fmt.Errorf("guest: sender image decoded to %T, want segment", p)
			}
			sn.q.Push(seg)
		}
	}
	return nil
}
