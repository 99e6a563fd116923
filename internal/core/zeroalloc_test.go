//go:build !race

package core_test

import (
	"testing"

	"cdna/internal/core/corebench"
)

// One protected descriptor enqueue through the hypercall path — reap,
// ownership validation, pinning, stamping, publish — must allocate
// nothing in steady state: the op BenchmarkGuestDMA times. Race builds
// are excluded (the detector's instrumentation allocates).
func TestGuestDMAZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	enq, err := corebench.NewGuestDMA()
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		if err := enq(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("steady-state guest DMA enqueue allocates %.1f/op, want 0", a)
	}
}
