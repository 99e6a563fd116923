package nic_test

import (
	"testing"

	"cdna/internal/nic/nicbench"
)

// The device transmit pipeline, runnable via `go test -bench`;
// perfbench's probe runs the same function.
func BenchmarkTxPipeline(b *testing.B) { nicbench.TxPipeline(b) }
