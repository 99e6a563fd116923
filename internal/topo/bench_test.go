package topo_test

import (
	"testing"

	"cdna/internal/topo/topobench"
)

// The switch hot path, runnable via `go test -bench` (CI's short
// benchmark smoke); perfbench's probe runs the same function.
func BenchmarkSwitchForward(b *testing.B) { topobench.Forward(b) }
