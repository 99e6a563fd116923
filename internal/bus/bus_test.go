package bus

import (
	"testing"

	"cdna/internal/sim"
)

func TestDMACompletionTime(t *testing.T) {
	eng := sim.New()
	b := New(eng, Params{BytesPerSec: 1e9, PerTransfer: 100})
	var done sim.Time
	b.DMA(1000, sim.RawFn(func() { done = eng.Now() }))
	eng.Run(sim.Second)
	// 100ns setup + 1000B at 1GB/s = 1000ns -> 1100ns.
	if done != 1100 {
		t.Fatalf("done at %v, want 1100ns", done)
	}
}

func TestDMAFIFOSerialization(t *testing.T) {
	eng := sim.New()
	b := New(eng, Params{BytesPerSec: 1e9, PerTransfer: 0})
	var first, second sim.Time
	b.DMA(1000, sim.RawFn(func() { first = eng.Now() }))
	b.DMA(1000, sim.RawFn(func() { second = eng.Now() }))
	eng.Run(sim.Second)
	if first != 1000 || second != 2000 {
		t.Fatalf("first=%v second=%v, want 1000/2000", first, second)
	}
}

func TestDMAAfterIdleGap(t *testing.T) {
	eng := sim.New()
	b := New(eng, Params{BytesPerSec: 1e9, PerTransfer: 0})
	b.DMA(100, sim.Fn{})
	var done sim.Time
	eng.After(10*sim.Microsecond, func() {
		b.DMA(100, sim.RawFn(func() { done = eng.Now() }))
	})
	eng.Run(sim.Second)
	if done != 10*sim.Microsecond+100 {
		t.Fatalf("done=%v, want 10.1us", done)
	}
}

func TestBacklog(t *testing.T) {
	eng := sim.New()
	b := New(eng, Params{BytesPerSec: 1e9, PerTransfer: 0})
	if b.Backlog() != 0 {
		t.Fatal("fresh bus must have zero backlog")
	}
	b.DMA(5000, sim.Fn{})
	if b.Backlog() != 5000 {
		t.Fatalf("Backlog = %v, want 5000ns", b.Backlog())
	}
	eng.Run(sim.Second)
	if b.Backlog() != 0 {
		t.Fatal("drained bus must have zero backlog")
	}
}

func TestCounters(t *testing.T) {
	eng := sim.New()
	b := New(eng, DefaultParams())
	b.StartWindow()
	b.DMA(100, sim.Fn{})
	b.DMA(200, sim.Fn{})
	eng.Run(sim.Second)
	if b.Transfers.Window() != 2 || b.Bytes.Window() != 300 {
		t.Fatalf("transfers=%d bytes=%d", b.Transfers.Window(), b.Bytes.Window())
	}
}

func TestNegativeSizePanics(t *testing.T) {
	eng := sim.New()
	b := New(eng, DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("negative size must panic")
		}
	}()
	b.DMA(-1, sim.Fn{})
}

func TestNilCompletionAllowed(t *testing.T) {
	eng := sim.New()
	b := New(eng, DefaultParams())
	b.DMA(10, sim.Fn{})
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("nil completion panicked: %v", r)
		}
	}()
	eng.Run(sim.Second)
}
