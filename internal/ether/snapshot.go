package ether

import (
	"fmt"
	"slices"

	"cdna/internal/sim"
	"cdna/internal/stats"
)

// PayloadCodec converts frame payloads to and from plain bytes for
// checkpoints. The payload type (a transport segment) lives above this
// package, so the machine layer supplies the codec; a nil payload is
// handled here and never reaches it.
type PayloadCodec interface {
	EncodePayload(p any) ([]byte, error)
	DecodePayload(b []byte) (any, error)
}

// FrameState is a frame's checkpoint image. Frames are immutable after
// creation and carry no identity in the model — every holder serializes
// its frames by value and restore materializes fresh ones.
type FrameState struct {
	Dst, Src MAC
	Size     int
	Payload  []byte // nil for frames without a payload
}

// CaptureFrame converts a frame to its image using codec for the
// payload.
func CaptureFrame(f *Frame, codec PayloadCodec) (FrameState, error) {
	s := FrameState{Dst: f.Dst, Src: f.Src, Size: f.Size}
	if f.Payload != nil {
		if codec == nil {
			return FrameState{}, fmt.Errorf("ether: frame with payload but no codec")
		}
		b, err := codec.EncodePayload(f.Payload)
		if err != nil {
			return FrameState{}, err
		}
		if b == nil {
			b = []byte{}
		}
		s.Payload = b
	}
	return s, nil
}

// RestoreFrame materializes a frame from its image.
func RestoreFrame(s FrameState, codec PayloadCodec) (*Frame, error) {
	f := &Frame{Dst: s.Dst, Src: s.Src, Size: s.Size}
	if s.Payload != nil {
		if codec == nil {
			return nil, fmt.Errorf("ether: frame image with payload but no codec")
		}
		p, err := codec.DecodePayload(s.Payload)
		if err != nil {
			return nil, err
		}
		f.Payload = p
	}
	return f, nil
}

// CaptureFrames converts a slice of frames.
func CaptureFrames(fs []*Frame, codec PayloadCodec) ([]FrameState, error) {
	if fs == nil {
		return nil, nil
	}
	out := make([]FrameState, len(fs))
	for i, f := range fs {
		s, err := CaptureFrame(f, codec)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// RestoreFrames materializes a slice of frames.
func RestoreFrames(ss []FrameState, codec PayloadCodec) ([]*Frame, error) {
	if ss == nil {
		return nil, nil
	}
	out := make([]*Frame, len(ss))
	for i, s := range ss {
		f, err := RestoreFrame(s, codec)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// CaptureFrameFIFO walks a frame FIFO head-to-tail.
func CaptureFrameFIFO(q *sim.FIFO[*Frame], codec PayloadCodec) ([]FrameState, error) {
	out := make([]FrameState, q.Len())
	for i := 0; i < q.Len(); i++ {
		s, err := CaptureFrame(q.At(i), codec)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// RestoreFrameFIFO refills a frame FIFO from images.
func RestoreFrameFIFO(q *sim.FIFO[*Frame], ss []FrameState, codec PayloadCodec) error {
	q.Clear()
	for _, s := range ss {
		f, err := RestoreFrame(s, codec)
		if err != nil {
			return err
		}
		q.Push(f)
	}
	return nil
}

// PipeState is one pipe direction's checkpoint image. The in-flight
// frames' delivery events ride the engine snapshot; the queue here is
// the frames those events will pop.
type PipeState struct {
	BusyUntil sim.Time
	Down      bool
	Inflight  []FrameState
	Frames    stats.CounterState
	Bytes     stats.CounterState
	Dropped   stats.CounterState
	// SendSeq is the per-pipe send counter behind delivery keys
	// (EnableKeyed).
	SendSeq uint64
}

// State captures the pipe.
func (p *Pipe) State(codec PayloadCodec) (PipeState, error) {
	inflight, err := CaptureFrameFIFO(&p.inflight, codec)
	if err != nil {
		return PipeState{}, err
	}
	return PipeState{
		BusyUntil: p.busyUntil,
		Down:      p.down,
		Inflight:  inflight,
		Frames:    p.Frames.State(),
		Bytes:     p.Bytes.State(),
		Dropped:   p.Dropped.State(),
		SendSeq:   p.sendSeq,
	}, nil
}

// SetState restores the pipe.
func (p *Pipe) SetState(s PipeState, codec PayloadCodec) error {
	p.busyUntil = s.BusyUntil
	p.down = s.Down
	p.Frames.SetState(s.Frames)
	p.Bytes.SetState(s.Bytes)
	p.Dropped.SetState(s.Dropped)
	p.sendSeq = s.SendSeq
	return RestoreFrameFIFO(&p.inflight, s.Inflight, codec)
}

// FDBEntry is one learned station in a bridge image.
type FDBEntry struct {
	MAC  MAC
	Port int
}

// BridgeState is a learning bridge's checkpoint image. The forwarding
// database is serialized sorted by MAC so the image is deterministic
// regardless of map iteration order.
type BridgeState struct {
	FDB         []FDBEntry
	Forwarded   stats.CounterState
	Flooded     stats.CounterState
	FloodCopies stats.CounterState
	Moves       stats.CounterState
}

// State captures the bridge.
func (b *Bridge) State() BridgeState {
	keys := make([]uint64, 0, len(b.fdb))
	for k := range b.fdb {
		keys = append(keys, k)
	}
	slices.Sort(keys) // big-endian keys sort in MAC order
	fdb := make([]FDBEntry, len(keys))
	for i, k := range keys {
		fdb[i] = FDBEntry{MAC: keyMAC(k), Port: int(b.fdb[k])}
	}
	return BridgeState{
		FDB:         fdb,
		Forwarded:   b.Forwarded.State(),
		Flooded:     b.Flooded.State(),
		FloodCopies: b.FloodCopies.State(),
		Moves:       b.Moves.State(),
	}
}

// SetState restores the bridge.
func (b *Bridge) SetState(s BridgeState) {
	b.fdb = make(map[uint64]int32, len(s.FDB))
	for _, e := range s.FDB {
		b.fdb[macKey(e.MAC)] = int32(e.Port)
	}
	b.Forwarded.SetState(s.Forwarded)
	b.Flooded.SetState(s.Flooded)
	b.FloodCopies.SetState(s.FloodCopies)
	b.Moves.SetState(s.Moves)
}
