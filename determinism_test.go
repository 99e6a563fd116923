package cdna

// The determinism contract that pins the zero-allocation event-core
// refactor: the rendered evaluation tables must be byte-identical from
// run to run, sequentially and under the parallel campaign pool. Event
// pooling, timer re-arming, and the FIFO callback pattern all preserve
// the engine's (time, sequence) execution order exactly; this test is
// the tripwire if a future change does not.

import (
	"testing"

	"cdna/internal/bench"
	"cdna/internal/campaign"
	"cdna/internal/sim"
)

// renderTable1 runs the table1 set on the given number of workers and
// renders Table 1 as cdnatables prints it.
func renderTable1(t *testing.T, workers int) string {
	t.Helper()
	w := bench.Quick()
	if testing.Short() {
		w = bench.Opts{Warmup: 20 * sim.Millisecond, Duration: 60 * sim.Millisecond}
	}
	set, _ := campaign.Named("table1")
	outs := campaign.Run(campaign.Apply(set.Points(), w.Warmup, w.Duration), campaign.Options{Workers: workers})
	if err := campaign.Check(outs); err != nil {
		t.Fatal(err)
	}
	return set.Tables[0].Render(outs).String()
}

func TestTable1GoldenDeterminism(t *testing.T) {
	first := renderTable1(t, 1)
	second := renderTable1(t, 1)
	if first != second {
		t.Fatalf("sequential reruns differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	pooled := renderTable1(t, 4)
	if pooled != first {
		t.Fatalf("campaign-pool run differs from sequential:\n--- sequential ---\n%s\n--- pooled ---\n%s", first, pooled)
	}
	if len(first) == 0 {
		t.Fatal("rendered table is empty")
	}
}
