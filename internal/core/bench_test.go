package core_test

import (
	"testing"

	"cdna/internal/core/corebench"
)

// The hypercall DMA-protection enqueue path, runnable via
// `go test -bench`; perfbench's probe runs the same function.
func BenchmarkGuestDMA(b *testing.B) { corebench.GuestDMA(b) }
