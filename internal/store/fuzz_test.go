package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/entry with the entry Put writes")

// seedPayload is the payload of testdata/entry, a result record of the
// kind internal/campaign stores.
var seedPayload = []byte(`{"name":"cdna/ricenic/1g/2nic/tx","mbps":1867}`)

// TestSeedEntryIsPutOutput pins testdata/entry, FuzzDecode's only seed,
// to the bytes Put writes for seedPayload, so the fuzzer starts from a
// real entry in the current format. Run with -update after a format
// change to rewrite it.
func TestSeedEntryIsPutOutput(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key(seedPayload)
	if err := s.Put(key, seedPayload); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("testdata/entry", got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/entry")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Put wrote %q, testdata/entry holds %q (rerun with -update after a format change)", got, want)
	}
	if payload, ok := decode(want); !ok || !bytes.Equal(payload, seedPayload) {
		t.Fatalf("decode(testdata/entry) = %q, %v; want %q, true", payload, ok, seedPayload)
	}
}

// FuzzDecode: any file contents decode to a miss or to exactly the
// payload its header describes (length and checksum), never a panic,
// and decoding allocates nothing, so never more than the input's size.
func FuzzDecode(f *testing.F) {
	entry, err := os.ReadFile("testdata/entry")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry)
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, ok := decode(b)
		if !ok {
			if payload != nil {
				t.Fatalf("miss returned payload %q", payload)
			}
		} else {
			sum := sha256.Sum256(payload)
			if len(b) < headerSize || string(b[:len(magic)]) != magic ||
				binary.BigEndian.Uint64(b[len(magic):]) != uint64(len(payload)) ||
				!bytes.Equal(b[len(magic)+8:headerSize], sum[:]) ||
				!bytes.Equal(payload, b[headerSize:]) {
				t.Fatalf("decode(%q) = %q: not the payload its header describes", b, payload)
			}
		}
		if n := testing.AllocsPerRun(10, func() { decode(b) }); n != 0 {
			t.Fatalf("decode of %d bytes made %.1f allocations", len(b), n)
		}
	})
}
