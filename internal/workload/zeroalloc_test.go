//go:build !race

package workload

import (
	"runtime"
	"testing"

	"cdna/internal/sim"
	"cdna/internal/transport"
)

// TestOverloadedArrivalsAllocateNothing: an open-loop endpoint whose
// connection never completes a flow keeps accepting arrivals, and its
// backlog grows without bound in count — but not in memory. Tens of
// thousands of arrivals must allocate nothing. The count comes from
// runtime mallocs over the whole run, not testing.AllocsPerRun, whose
// per-run average would round a queue's rare doublings down to zero.
// Race builds are excluded (the detector's instrumentation allocates).
func TestOverloadedArrivalsAllocateNothing(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	for _, kind := range []Kind{Poisson, Pareto} {
		eng := sim.New()
		g, err := NewGenerator(eng, Spec{Kind: kind, FlowRate: 1e6, SizeDist: SizeWebSearch}.Resolved(true, false))
		if err != nil {
			t.Fatal(err)
		}
		// No sender is attached, so the first flow never leaves the
		// connection and every later arrival stays in the backlog.
		if err := g.Add(Endpoint{Fwd: transport.NewConn(eng, 0, transport.DefaultSegSize, 32)}); err != nil {
			t.Fatal(err)
		}
		g.Launch(sim.Millisecond)
		eng.Run(3 * sim.Millisecond)
		before := g.Arrivals.Total()

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		eng.Run(eng.Now() + 30*sim.Millisecond)
		runtime.ReadMemStats(&m1)

		arrivals := g.Arrivals.Total() - before
		if arrivals < 10000 {
			t.Fatalf("%v: %d arrivals in the measured window, want at least 10000", kind, arrivals)
		}
		if g.Flows.Total() != 0 {
			t.Fatalf("%v: %d flows completed on a connection that cannot send", kind, g.Flows.Total())
		}
		if n := m1.Mallocs - m0.Mallocs; n != 0 {
			t.Fatalf("%v: %d arrivals into a growing backlog allocated %d times, want 0", kind, arrivals, n)
		}
	}
}
