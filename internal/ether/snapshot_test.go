package ether

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"cdna/internal/sim"
)

// bytePayload is a stand-in for the transport segment riding a frame.
type bytePayload struct{ v byte }

// byteCodec serializes bytePayload; fail makes every call refuse, the
// way a real codec refuses a payload it does not recognize.
type byteCodec struct{ fail bool }

func (c byteCodec) EncodePayload(p any) ([]byte, error) {
	if c.fail {
		return nil, errors.New("encode refused")
	}
	return []byte{p.(bytePayload).v}, nil
}

func (c byteCodec) DecodePayload(b []byte) (any, error) {
	if c.fail || len(b) != 1 {
		return nil, errors.New("decode refused")
	}
	return bytePayload{v: b[0]}, nil
}

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{Src: MakeMAC(1, 0), Dst: MakeMAC(1, 1), Size: 1514, Payload: bytePayload{v: 7}}
	s, err := CaptureFrame(f, byteCodec{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := RestoreFrame(s, byteCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Src != f.Src || g.Dst != f.Dst || g.Size != f.Size || g.Payload != f.Payload {
		t.Fatalf("restored frame %+v != original %+v", g, f)
	}

	// Payload-free frames need no codec at all.
	bare := &Frame{Src: MakeMAC(1, 2), Dst: MakeMAC(1, 3), Size: 60}
	s, err = CaptureFrame(bare, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Payload != nil {
		t.Fatalf("bare frame image has payload %v", s.Payload)
	}
	if g, err = RestoreFrame(s, nil); err != nil || g.Payload != nil {
		t.Fatalf("bare restore: frame %+v, err %v", g, err)
	}
}

func TestFrameCodecErrors(t *testing.T) {
	loaded := &Frame{Size: 60, Payload: bytePayload{v: 1}}
	if _, err := CaptureFrame(loaded, nil); err == nil {
		t.Fatal("captured a payload without a codec")
	}
	if _, err := CaptureFrame(loaded, byteCodec{fail: true}); err == nil {
		t.Fatal("capture ignored a codec error")
	}
	img, err := CaptureFrame(loaded, byteCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreFrame(img, nil); err == nil {
		t.Fatal("restored a payload image without a codec")
	}
	if _, err := RestoreFrame(img, byteCodec{fail: true}); err == nil {
		t.Fatal("restore ignored a codec error")
	}

	if _, err := CaptureFrames([]*Frame{loaded}, nil); err == nil {
		t.Fatal("slice capture ignored the codec error")
	}
	if _, err := RestoreFrames([]FrameState{img}, byteCodec{fail: true}); err == nil {
		t.Fatal("slice restore ignored the codec error")
	}
}

func TestFrameSlicesRoundTrip(t *testing.T) {
	// nil in, nil out: a nil slice is a meaningful "no frames here".
	if s, err := CaptureFrames(nil, nil); err != nil || s != nil {
		t.Fatalf("CaptureFrames(nil) = %v, %v", s, err)
	}
	if fs, err := RestoreFrames(nil, nil); err != nil || fs != nil {
		t.Fatalf("RestoreFrames(nil) = %v, %v", fs, err)
	}

	in := []*Frame{
		{Src: MakeMAC(2, 0), Dst: MakeMAC(2, 1), Size: 60},
		{Src: MakeMAC(2, 1), Dst: MakeMAC(2, 0), Size: 1514, Payload: bytePayload{v: 9}},
	}
	ss, err := CaptureFrames(in, byteCodec{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := RestoreFrames(ss, byteCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("restored %d frames, want %d", len(out), len(in))
	}
	for i := range in {
		if *out[i] != *in[i] {
			t.Fatalf("frame %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestFrameFIFORoundTrip(t *testing.T) {
	var q sim.FIFO[*Frame]
	for i := 0; i < 3; i++ {
		q.Push(&Frame{Src: MakeMAC(3, i), Dst: MakeMAC(3, i+1), Size: 60 + i})
	}
	ss, err := CaptureFrameFIFO(&q, nil)
	if err != nil {
		t.Fatal(err)
	}
	var q2 sim.FIFO[*Frame]
	q2.Push(&Frame{Size: 999}) // must be cleared by restore
	if err := RestoreFrameFIFO(&q2, ss, nil); err != nil {
		t.Fatal(err)
	}
	if q2.Len() != q.Len() {
		t.Fatalf("restored FIFO depth %d, want %d", q2.Len(), q.Len())
	}
	for i := 0; i < q.Len(); i++ {
		if *q2.At(i) != *q.At(i) {
			t.Fatalf("slot %d: %+v != %+v", i, q2.At(i), q.At(i))
		}
	}

	bad := []FrameState{{Size: 60, Payload: []byte{1, 2}}} // undecodable image
	if err := RestoreFrameFIFO(&q2, bad, byteCodec{}); err == nil {
		t.Fatal("restored an undecodable payload image")
	}
}

// pipeRig is one pipe direction feeding a delivery log.
type pipeRig struct {
	eng  *sim.Engine
	pipe *Pipe
	got  []delivered
}

type delivered struct {
	at   sim.Time
	size int
}

func newPipeRig() *pipeRig {
	r := &pipeRig{eng: sim.New()}
	r.pipe = NewPipe(r.eng, 1.0, 500)
	r.pipe.Connect(PortFunc(func(f *Frame) {
		r.got = append(r.got, delivered{at: r.eng.Now(), size: f.Size})
	}))
	return r
}

// TestPipeSnapshotContinuation checkpoints a pipe with frames on the
// wire and resumes it in a fresh pipe on a fresh engine: the remaining
// deliveries must land at the same instants. The delivery events ride
// the engine snapshot; the pipe state carries the frames they pop.
func TestPipeSnapshotContinuation(t *testing.T) {
	a := newPipeRig()
	for i := 0; i < 4; i++ {
		a.pipe.Send(&Frame{Src: MakeMAC(4, 0), Dst: MakeMAC(4, 1), Size: 600 + i})
	}
	a.eng.Run(a.pipe.NextFree() / 2) // some delivered, some in flight

	ps, err := a.pipe.State(nil)
	if err != nil {
		t.Fatal(err)
	}
	es, err := a.eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	b := newPipeRig()
	if err := b.pipe.SetState(ps, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.eng.Restore(es); err != nil {
		t.Fatal(err)
	}

	delivered := len(a.got)
	a.eng.Run(a.pipe.NextFree() + sim.Second)
	b.eng.Run(b.pipe.NextFree() + sim.Second)
	if !reflect.DeepEqual(a.got[delivered:], b.got) {
		t.Fatalf("resumed deliveries %v, want %v", b.got, a.got[delivered:])
	}

	// After both drained, the two pipes' images agree.
	as, err := a.pipe.State(nil)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := b.pipe.State(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(as, bs) {
		t.Fatalf("drained images differ:\n%+v\n%+v", as, bs)
	}
}

func TestPipeDownStateRoundTrip(t *testing.T) {
	a := newPipeRig()
	a.pipe.Send(&Frame{Size: 600})
	a.pipe.SetDown(true)
	a.pipe.Send(&Frame{Size: 600}) // discarded: the link is down
	if !a.pipe.Down() {
		t.Fatal("pipe not down after SetDown")
	}
	if a.pipe.Dropped.Total() != 1 {
		t.Fatalf("Dropped = %d, want 1", a.pipe.Dropped.Total())
	}

	ps, err := a.pipe.State(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Down {
		t.Fatal("image lost the down flag")
	}
	b := newPipeRig()
	if err := b.pipe.SetState(ps, nil); err != nil {
		t.Fatal(err)
	}
	if !b.pipe.Down() || b.pipe.Dropped.Total() != 1 {
		t.Fatalf("restored pipe: down=%v dropped=%d", b.pipe.Down(), b.pipe.Dropped.Total())
	}
	got, err := b.pipe.State(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ps) {
		t.Fatalf("restored image %+v != donor image %+v", got, ps)
	}

	// Windowed counters reset on window open, down or not.
	b.pipe.StartWindow()
	if b.pipe.Dropped.Window() != 0 {
		t.Fatal("StartWindow did not reset the drop window")
	}
}

func TestPipeStateCodecErrors(t *testing.T) {
	r := newPipeRig()
	r.pipe.Send(&Frame{Size: 600, Payload: bytePayload{v: 3}})
	if _, err := r.pipe.State(nil); err == nil {
		t.Fatal("captured an in-flight payload without a codec")
	}
	ps, err := r.pipe.State(byteCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := newPipeRig().pipe.SetState(ps, byteCodec{fail: true}); err == nil {
		t.Fatal("restore ignored the codec error")
	}
}

func TestBridgeSnapshotRoundTrip(t *testing.T) {
	mk := func() (*Bridge, *[]int) {
		b := NewBridge()
		var hits []int
		for i := 0; i < 3; i++ {
			i := i
			b.AddPort(PortFunc(func(*Frame) { hits = append(hits, i) }))
		}
		return b, &hits
	}
	a, _ := mk()
	macs := []MAC{MakeMAC(6, 0), MakeMAC(6, 1), MakeMAC(6, 2)}
	for i, m := range macs {
		a.Input(i, &Frame{Src: m, Dst: Broadcast, Size: 60})
	}
	a.Input(0, &Frame{Src: macs[0], Dst: macs[2], Size: 60})

	st := a.State()
	if len(st.FDB) != 3 {
		t.Fatalf("image has %d FDB entries, want 3", len(st.FDB))
	}
	// Determinism: the FDB serializes sorted, independent of map order.
	if !reflect.DeepEqual(st, a.State()) {
		t.Fatal("re-capturing the same bridge produced a different image")
	}

	b, hits := mk()
	b.SetState(st)
	if !reflect.DeepEqual(b.State(), st) {
		t.Fatalf("restored image differs:\n%+v\n%+v", b.State(), st)
	}
	// The restored FDB forwards (not floods) to the learned port.
	b.Input(0, &Frame{Src: macs[0], Dst: macs[1], Size: 60})
	if !reflect.DeepEqual(*hits, []int{1}) {
		t.Fatalf("post-restore unicast hit ports %v, want [1]", *hits)
	}
}

// TestBridgeImageSortedByMAC: the forwarding database is keyed by a
// packed integer, and its image must still list stations in MAC byte
// order, with every MAC read back exactly. The MACs differ in each byte
// position, high bytes included.
func TestBridgeImageSortedByMAC(t *testing.T) {
	b := NewBridge()
	b.AddPort(PortFunc(func(f *Frame) {}))
	b.AddPort(PortFunc(func(f *Frame) {}))
	macs := []MAC{
		{0xfe, 0, 0, 0, 0, 1}, {0x02, 0xff, 0, 0, 0, 0}, {0x02, 0, 0, 0, 0, 0xff},
		{0x02, 0, 0x80, 0, 0, 0}, {0x02, 0, 0, 0, 0x01, 0}, {0x02, 0, 0, 0x7f, 0, 0},
		{0x00, 0, 0, 0, 0, 0},
	}
	for i, m := range macs {
		b.Learn(m, i%2)
	}
	st := b.State()
	if len(st.FDB) != len(macs) {
		t.Fatalf("image has %d entries, want %d", len(st.FDB), len(macs))
	}
	for i, e := range st.FDB {
		if i > 0 && bytes.Compare(st.FDB[i-1].MAC[:], e.MAC[:]) >= 0 {
			t.Fatalf("image out of MAC order at %d: %v then %v", i, st.FDB[i-1].MAC, e.MAC)
		}
		if got := b.Lookup(e.MAC); got != e.Port {
			t.Fatalf("image lists %v on port %d, bridge has it on %d", e.MAC, e.Port, got)
		}
	}
	for i, m := range macs {
		if got := b.Lookup(m); got != i%2 {
			t.Fatalf("Lookup(%v) = %d, want %d", m, got, i%2)
		}
	}
}

func TestBridgeUnlearn(t *testing.T) {
	b := NewBridge()
	for i := 0; i < 3; i++ {
		b.AddPort(PortFunc(func(*Frame) {}))
	}
	if b.NumPorts() != 3 {
		t.Fatalf("NumPorts = %d", b.NumPorts())
	}
	macs := []MAC{MakeMAC(7, 0), MakeMAC(7, 1), MakeMAC(7, 2)}
	for i, m := range macs {
		b.Input(i, &Frame{Src: m, Dst: Broadcast, Size: 60})
	}
	if n := b.Unlearn(1); n != 1 {
		t.Fatalf("Unlearn removed %d entries, want 1", n)
	}
	if b.Lookup(macs[1]) != -1 {
		t.Fatal("station still learned after Unlearn")
	}
	if b.Lookup(macs[0]) != 0 || b.Lookup(macs[2]) != 2 {
		t.Fatal("Unlearn touched other ports' stations")
	}
	if n := b.Unlearn(1); n != 0 {
		t.Fatalf("second Unlearn removed %d entries, want 0", n)
	}
}
