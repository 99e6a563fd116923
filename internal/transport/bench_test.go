package transport_test

import (
	"testing"

	"cdna/internal/transport/transportbench"
)

// The pooled-segment round trip, runnable via `go test -bench`;
// perfbench's probe runs the same function.
func BenchmarkSegment(b *testing.B) { transportbench.Segment(b) }
