package ether_test

import (
	"testing"

	"cdna/internal/ether/etherbench"
)

// The pooled-frame hot path, runnable via `go test -bench`;
// perfbench's probe runs the same function.
func BenchmarkFrameArena(b *testing.B) { etherbench.FrameArena(b) }
