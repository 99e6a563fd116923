package campaign

import (
	"bytes"
	"encoding/json"
	"testing"

	"cdna/internal/bench"
	"cdna/internal/sim"
	"cdna/internal/workload"
)

// TestGridPointNamesDistinct: every distinct point of every canned
// campaign — the full paper plus the workloads preset plus a grid with
// explicit workload knobs — must have a distinct Name, and the name
// must survive a JSON round-trip of its configuration. This is the
// round-trip contract result files rely on to key records.
func TestGridPointNamesDistinct(t *testing.T) {
	grids := PaperGrids()
	grids = append(grids, WorkloadGrids()...)
	grids = append(grids, Grid{
		Modes: []bench.Mode{bench.ModeCDNA},
		Workloads: []workload.Spec{
			{Kind: workload.RequestResponse},
			{Kind: workload.RequestResponse, RequestSegs: 8},
			{Kind: workload.RequestResponse, RequestSegs: 8, Think: 5 * sim.Millisecond},
			{Kind: workload.Churn},
			{Kind: workload.Churn, FlowSegs: 2},
			{Kind: workload.Churn, FlowGap: sim.Millisecond},
			{Kind: workload.Burst},
			{Kind: workload.Burst, BurstOn: sim.Millisecond, BurstOff: 4 * sim.Millisecond},
		},
	})
	cfgs := Expand(grids...)
	if len(cfgs) == 0 {
		t.Fatal("no grid points")
	}
	names := make(map[string]bench.Config, len(cfgs))
	for _, cfg := range cfgs {
		name := cfg.Name()
		if prev, dup := names[name]; dup {
			t.Fatalf("distinct grid points share name %q:\n%+v\n%+v", name, prev, cfg)
		}
		names[name] = cfg

		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var back bench.Config
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back.Name() != name {
			t.Fatalf("name %q round-tripped to %q", name, back.Name())
		}
	}
}

// TestWorkloadCampaignParallelDeterminism: with the workload axis
// enabled, a 1-worker and an N-worker run of the same campaign must
// produce byte-identical result files.
func TestWorkloadCampaignParallelDeterminism(t *testing.T) {
	cfgs := Expand(WorkloadGrids()...)
	cfgs = Apply(cfgs, 20*sim.Millisecond, 60*sim.Millisecond)
	if len(cfgs) != 12 {
		t.Fatalf("workloads preset expands to %d points, want 12 (3 modes x 4 shapes)", len(cfgs))
	}

	encode := func(workers int) []byte {
		outs := Run(cfgs, Options{Workers: workers})
		var buf bytes.Buffer
		if err := WriteJSON(&buf, outs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := encode(1)
	pooled := encode(4)
	if !bytes.Equal(serial, pooled) {
		t.Fatalf("1-worker and 4-worker workload campaigns differ:\n--- serial ---\n%s\n--- pooled ---\n%s", serial, pooled)
	}

	// Every point must actually have run its workload: the non-bulk
	// shapes report their own columns.
	recs, err := readJSON(bytes.NewReader(serial))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Failed() {
			t.Fatalf("%s failed: %s", rec.Name, rec.Error)
		}
		switch rec.Result.Config.Workload.Kind {
		case workload.RequestResponse:
			if rec.Result.RPCPerSec <= 0 || rec.Result.MsgLatP50us <= 0 {
				t.Fatalf("%s: no RPC traffic (rpc/s=%v p50=%v)", rec.Name, rec.Result.RPCPerSec, rec.Result.MsgLatP50us)
			}
		case workload.Churn:
			if rec.Result.FlowsPerSec <= 0 {
				t.Fatalf("%s: no flow churn", rec.Name)
			}
		case workload.Bulk, workload.Burst:
			if rec.Result.Mbps <= 0 {
				t.Fatalf("%s: no traffic", rec.Name)
			}
		}
	}
}
