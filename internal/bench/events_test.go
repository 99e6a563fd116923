package bench

import (
	"testing"

	"cdna/internal/core"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

// TestCannedEventCounts gates the exact number of events four canned
// machines fire: single-host CDNA transmit, a 4-host incast on one
// switch, the same incast over a 2x2 leaf-spine, and that fabric under
// Poisson web-search arrivals. All run hypercall protection with the
// Quick windows. An event count moves only when simulated behaviour
// moves, so any change to it must be explained, and the failure names
// the machine that changed.
func TestCannedEventCounts(t *testing.T) {
	single := DefaultConfig(ModeCDNA, NICRice, Tx)
	single.Protection = core.ModeHypercall
	single.Warmup, single.Duration = Quick().Warmup, Quick().Duration
	incast := single
	incast.Hosts = 4
	incast.Pattern = PatternIncast
	leafSpine := incast
	leafSpine.Fabric = topo.FabricSpec{Kind: topo.KindLeafSpine, HostsPerLeaf: 2, Spines: 2}
	openLoop := leafSpine
	openLoop.Workload = workload.Spec{Kind: workload.Poisson, FlowRate: 2000, SizeDist: workload.SizeWebSearch}

	for _, tc := range []struct {
		name   string
		cfg    Config
		events uint64
	}{
		{"single-host", single, 701_068},
		{"incast", incast, 1_521_445},
		{"leaf-spine", leafSpine, 1_528_061},
		{"open-loop", openLoop, 1_747_572},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Events != tc.events {
				t.Fatalf("%s fired %d events, want %d", tc.cfg.Name(), res.Events, tc.events)
			}
		})
	}
}
