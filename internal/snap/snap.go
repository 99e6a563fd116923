// Package snap is the versioned checkpoint envelope for simulator
// snapshots. A snapshot is a header — format version, the producing
// configuration's name, and the engine's registry fingerprint — followed
// by one gob-encoded machine-state value. The header travels first so a
// restorer can reject a stale format or a structurally different
// machine before decoding megabytes of state.
//
// The envelope is deliberately ignorant of what the state value is: the
// machine layer (internal/bench) owns the walk over simulator
// components; this package owns versioning and identity. Restores are
// only defined into a machine rebuilt by the same deterministic
// construction — the registry fingerprint (bind and timer counts) is
// the cheap proxy for that, and the engine's own Restore re-verifies it
// against the live registries.
package snap

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Version is the snapshot format version. Bump it whenever any layer's
// state image changes shape; old images are then refused instead of
// being mis-decoded. Version 2 holds one engine and one workload
// generator image per machine, where version 1 held a list of each.
// Version 3 stores an open-loop endpoint's backlog as a count and a
// replay cursor, where version 2 stored every queued arrival.
const Version = 3

// magic guards against feeding arbitrary files to Decode.
const magic = "CDNASNAP"

// Header identifies a snapshot.
type Header struct {
	Version int
	// Config is the producing configuration's name tag. Restorers decide
	// what tags they accept (a warm-start fork accepts its fault-zeroed
	// base; a round-trip restore demands an exact match).
	Config string
	// Binds and Timers are the producing engine's registry sizes — the
	// fingerprint of the deterministic construction.
	Binds, Timers int
}

// Compatible reports whether the header can restore into a machine with
// the given fingerprint, accepting any of the listed config tags.
func (h Header) Compatible(binds, timers int, tags ...string) error {
	if h.Version != Version {
		return fmt.Errorf("snap: snapshot is format v%d, this build reads v%d", h.Version, Version)
	}
	ok := false
	for _, t := range tags {
		if h.Config == t {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("snap: snapshot of %q does not match machine %v", h.Config, tags)
	}
	if h.Binds != binds || h.Timers != timers {
		return fmt.Errorf("snap: registry fingerprint mismatch: snapshot has %d binds/%d timers, machine has %d/%d",
			h.Binds, h.Timers, binds, timers)
	}
	return nil
}

// Encode serializes a header and a state value into one image. The
// header's Version field is stamped here; callers fill the rest.
func Encode(h Header, state any) ([]byte, error) {
	h.Version = Version
	var buf bytes.Buffer
	buf.WriteString(magic)
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(h); err != nil {
		return nil, fmt.Errorf("snap: encoding header: %w", err)
	}
	if err := enc.Encode(state); err != nil {
		return nil, fmt.Errorf("snap: encoding state: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode reads an image's header and decodes its state into the given
// pointer, which must point at the same concrete type Encode was given.
// The header is returned for the caller's compatibility check — run it
// with DecodeHeader first when the state decode itself is expensive.
func Decode(b []byte, state any) (Header, error) {
	h, dec, err := decodeHeader(b)
	if err != nil {
		return Header{}, err
	}
	if err := dec.Decode(state); err != nil {
		return Header{}, fmt.Errorf("snap: decoding state: %w", err)
	}
	return h, nil
}

// DecodeHeader reads only the image's header.
func DecodeHeader(b []byte) (Header, error) {
	h, _, err := decodeHeader(b)
	return h, err
}

func decodeHeader(b []byte) (Header, *gob.Decoder, error) {
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		return Header{}, nil, fmt.Errorf("snap: not a snapshot image (bad magic)")
	}
	dec := gob.NewDecoder(bytes.NewReader(b[len(magic):]))
	var h Header
	if err := dec.Decode(&h); err != nil {
		return Header{}, nil, fmt.Errorf("snap: decoding header: %w", err)
	}
	return h, dec, nil
}
