// Package ring implements DMA descriptor rings as the paper describes
// them (§2.2–3.3): fixed-size descriptors holding a physical address, a
// length, flags, and — for CDNA — a strictly increasing sequence number,
// stored as real bytes in simulated host memory and managed with a
// producer/consumer protocol whose indices are free-running and wrap
// modulo the ring size.
//
// The encoding is parameterized by a Layout so the hypervisor can handle
// any NIC's descriptor format generically (§3.4): a NIC declares the
// descriptor size and the offsets of the address, length, flags and
// sequence-number fields, and the hypervisor composes descriptors without
// interpreting the flags.
package ring

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cdna/internal/mem"
)

// Flags carried in a descriptor.
const (
	FlagEOP   = 1 << 0 // end of packet
	FlagTx    = 1 << 1 // transmit (vs receive buffer post)
	FlagValid = 1 << 2 // set by the producer
)

// Desc is the decoded form of a DMA descriptor.
type Desc struct {
	Addr  mem.Addr
	Len   uint16
	Flags uint16
	Seq   uint32
}

// Layout describes a NIC's on-ring descriptor format. All offsets are in
// bytes from the start of the descriptor slot.
type Layout struct {
	Size     int // bytes per descriptor slot
	AddrOff  int // 8-byte little-endian physical address
	LenOff   int // 2-byte length
	FlagsOff int // 2-byte flags (opaque to the hypervisor)
	SeqOff   int // 4-byte sequence number; -1 if the NIC has no seq field
}

// DefaultLayout is the RiceNIC CDNA descriptor format.
var DefaultLayout = Layout{Size: 16, AddrOff: 0, LenOff: 8, FlagsOff: 10, SeqOff: 12}

// Validate checks that the field offsets fit within Size and do not
// overlap in obviously broken ways.
func (l Layout) Validate() error {
	if l.Size < 12 {
		return fmt.Errorf("ring: layout size %d too small", l.Size)
	}
	if l.AddrOff < 0 || l.AddrOff+8 > l.Size {
		return errors.New("ring: address field out of bounds")
	}
	if l.LenOff < 0 || l.LenOff+2 > l.Size {
		return errors.New("ring: length field out of bounds")
	}
	if l.FlagsOff < 0 || l.FlagsOff+2 > l.Size {
		return errors.New("ring: flags field out of bounds")
	}
	if l.SeqOff != -1 && (l.SeqOff < 0 || l.SeqOff+4 > l.Size) {
		return errors.New("ring: seq field out of bounds")
	}
	return nil
}

// Encode serializes d into a descriptor slot image.
func (l Layout) Encode(d Desc) []byte {
	b := make([]byte, l.Size)
	l.EncodeInto(d, b)
	return b
}

// EncodeInto serializes d into b, which must hold at least Size bytes.
// The per-Ring scratch buffer passes through here so the descriptor
// hot path does not allocate a slot image per packet.
func (l Layout) EncodeInto(d Desc, b []byte) {
	binary.LittleEndian.PutUint64(b[l.AddrOff:], uint64(d.Addr))
	binary.LittleEndian.PutUint16(b[l.LenOff:], d.Len)
	binary.LittleEndian.PutUint16(b[l.FlagsOff:], d.Flags)
	if l.SeqOff >= 0 {
		binary.LittleEndian.PutUint32(b[l.SeqOff:], d.Seq)
	}
}

// Decode parses a descriptor slot image.
func (l Layout) Decode(b []byte) (Desc, error) {
	if len(b) < l.Size {
		return Desc{}, fmt.Errorf("ring: short descriptor: %d < %d bytes", len(b), l.Size)
	}
	d := Desc{
		Addr:  mem.Addr(binary.LittleEndian.Uint64(b[l.AddrOff:])),
		Len:   binary.LittleEndian.Uint16(b[l.LenOff:]),
		Flags: binary.LittleEndian.Uint16(b[l.FlagsOff:]),
	}
	if l.SeqOff >= 0 {
		d.Seq = binary.LittleEndian.Uint32(b[l.SeqOff:])
	}
	return d, nil
}

// Ring is the host-side view of a descriptor ring: a contiguous region of
// host memory holding Entries descriptor slots, plus free-running
// producer and consumer indices. The producer index counts descriptors
// ever published; the consumer index counts descriptors ever consumed by
// the NIC. Both wrap modulo Entries only when converted to slot
// positions.
type Ring struct {
	Name    string
	Layout  Layout
	Base    mem.Addr
	Entries int

	prod uint32
	cons uint32

	scratch []byte // one descriptor slot image, reused by WriteDesc/ReadDesc
}

// New creates a ring over pre-allocated memory at base.
func New(name string, layout Layout, base mem.Addr, entries int) (*Ring, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("ring: entries %d must be a positive power of two", entries)
	}
	return &Ring{Name: name, Layout: layout, Base: base, Entries: entries,
		scratch: make([]byte, layout.Size)}, nil
}

// Bytes returns the memory footprint of the ring.
func (r *Ring) Bytes() int { return r.Entries * r.Layout.Size }

// SlotAddr returns the address of the slot for free-running index i.
func (r *Ring) SlotAddr(i uint32) mem.Addr {
	return r.Base + mem.Addr(int(i%uint32(r.Entries))*r.Layout.Size)
}

// Prod returns the free-running producer index.
func (r *Ring) Prod() uint32 { return r.prod }

// Cons returns the free-running consumer index.
func (r *Ring) Cons() uint32 { return r.cons }

// Avail returns how many published descriptors await consumption.
func (r *Ring) Avail() int { return int(r.prod - r.cons) }

// Space returns how many slots are free for new descriptors.
func (r *Ring) Space() int { return r.Entries - r.Avail() }

// Full reports whether the ring has no free slots.
func (r *Ring) Full() bool { return r.Space() == 0 }

// Errors from ring index operations.
var (
	ErrRingFull  = errors.New("ring: full")
	ErrRingEmpty = errors.New("ring: no published descriptors")
)

// Publish advances the producer index by n after descriptors have been
// written to the slots.
func (r *Ring) Publish(n int) error {
	if n > r.Space() {
		return ErrRingFull
	}
	r.prod += uint32(n)
	return nil
}

// Consume advances the consumer index by n.
func (r *Ring) Consume(n int) error {
	if n > r.Avail() {
		return ErrRingEmpty
	}
	r.cons += uint32(n)
	return nil
}

// WriteDesc encodes d into slot i via memory m, using writer identity
// dom (mem enforces hypervisor-exclusive ring protection).
func (r *Ring) WriteDesc(m *mem.Memory, dom mem.DomID, i uint32, d Desc) error {
	r.Layout.EncodeInto(d, r.scratch)
	return m.WriteAs(dom, r.SlotAddr(i), r.scratch)
}

// ReadDesc decodes slot i via the device path (no permission checks —
// this is the NIC's DMA read of the descriptor).
func (r *Ring) ReadDesc(m *mem.Memory, i uint32) (Desc, error) {
	if err := m.ReadInto(r.SlotAddr(i), r.scratch); err != nil {
		return Desc{}, err
	}
	return r.Layout.Decode(r.scratch)
}
