package bench

import (
	"strings"
	"testing"

	"cdna/internal/sim"
	"cdna/internal/workload"
)

func quickCfg(mode Mode, nic NICKind, kind workload.Kind) Config {
	cfg := DefaultConfig(mode, nic, Tx)
	cfg.Workload = workload.Spec{Kind: kind}
	cfg.Warmup = 20 * sim.Millisecond
	cfg.Duration = 60 * sim.Millisecond
	return cfg
}

// TestBulkResultHasNoWorkloadColumns: the default workload reports
// zeroes in the workload columns, keeping legacy result records stable.
func TestBulkResultHasNoWorkloadColumns(t *testing.T) {
	res, err := Run(quickCfg(ModeCDNA, NICRice, workload.Bulk))
	if err != nil {
		t.Fatal(err)
	}
	if res.RPCPerSec != 0 || res.FlowsPerSec != 0 || res.MsgLatP50us != 0 || res.MsgLatP99us != 0 {
		t.Fatalf("bulk run reported workload metrics: %+v", res)
	}
	if res.Mbps <= 0 {
		t.Fatal("bulk run moved no traffic")
	}
}

// TestChurnChargesTheGuest: connection churn must cost guest CPU beyond
// what the same byte stream costs as one long-lived bulk flow — the
// per-flow setup/teardown charges and slow-start restarts at work.
func TestChurnChargesTheGuest(t *testing.T) {
	bulk, err := Run(quickCfg(ModeCDNA, NICRice, workload.Bulk))
	if err != nil {
		t.Fatal(err)
	}
	churn, err := Run(quickCfg(ModeCDNA, NICRice, workload.Churn))
	if err != nil {
		t.Fatal(err)
	}
	if churn.FlowsPerSec <= 0 {
		t.Fatal("churn completed no flows")
	}
	if churn.Profile.GuestOS <= bulk.Profile.GuestOS {
		t.Fatalf("churn guest OS time %.3f not above bulk %.3f: flow lifecycle is free",
			churn.Profile.GuestOS, bulk.Profile.GuestOS)
	}
}

// TestRequestResponseAcrossModes: the RPC workload runs on every
// machine architecture and reports latency quantiles.
func TestRequestResponseAcrossModes(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		nic  NICKind
	}{{ModeNative, NICIntel}, {ModeXen, NICIntel}, {ModeCDNA, NICRice}} {
		res, err := Run(quickCfg(tc.mode, tc.nic, workload.RequestResponse))
		if err != nil {
			t.Fatalf("%v: %v", tc.mode, err)
		}
		if res.RPCPerSec <= 0 {
			t.Fatalf("%v: no RPCs completed", tc.mode)
		}
		if res.MsgLatP50us <= 0 || res.MsgLatP99us < res.MsgLatP50us {
			t.Fatalf("%v: implausible latency quantiles p50=%v p99=%v",
				tc.mode, res.MsgLatP50us, res.MsgLatP99us)
		}
	}
}

// TestWorkloadNameSuffix: the workload contributes to Config.Name, and
// the default keeps legacy names byte-identical.
func TestWorkloadNameSuffix(t *testing.T) {
	base := DefaultConfig(ModeCDNA, NICRice, Tx)
	if strings.Contains(base.Name(), "bulk") {
		t.Fatalf("default name %q mentions the workload; legacy names must not change", base.Name())
	}
	rr := base
	rr.Workload = workload.Spec{Kind: workload.RequestResponse}
	if !strings.HasSuffix(rr.Name(), "/rr") {
		t.Fatalf("RPC name %q missing workload suffix", rr.Name())
	}
	knobbed := rr
	knobbed.Workload.Think = 2 * sim.Millisecond
	if knobbed.Name() == rr.Name() {
		t.Fatal("distinct workload knobs produced identical names")
	}
}

// TestValidateRejectsBadWorkload: malformed specs are caught before the
// machine is built, so campaigns record clean per-point errors.
func TestValidateRejectsBadWorkload(t *testing.T) {
	cfg := quickCfg(ModeCDNA, NICRice, workload.Kind(99))
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid workload kind accepted")
	}
	cfg = quickCfg(ModeCDNA, NICRice, workload.Churn)
	cfg.Workload.FlowSegs = -3
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative flow size accepted")
	}
}

// TestTraceReplayMatchingNothingFails: a trace none of whose rows
// matches a connection of the pattern is an error, not a zero row; a
// trace some of whose rows match runs and counts the rest as skipped.
func TestTraceReplayMatchingNothingFails(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Hosts = 4
	cfg.Pattern = PatternIncast
	cfg.Workload = workload.Spec{Kind: workload.Trace}
	cfg.Warmup, cfg.Duration = 20*sim.Millisecond, 50*sim.Millisecond
	for _, tc := range []struct {
		name    string
		events  []workload.TraceEvent
		skipped int // -1: the run must fail
	}{
		{"none-match", []workload.TraceEvent{{At: sim.Millisecond, Src: 0, Dst: 1, Segs: 1}, {At: 2 * sim.Millisecond, Src: 2, Dst: 3, Segs: 1}}, -1},
		{"some-match", []workload.TraceEvent{{At: sim.Millisecond, Src: 0, Dst: 1, Segs: 1}, {At: 2 * sim.Millisecond, Src: 1, Dst: 0, Segs: 1}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			name := "bench-" + tc.name
			workload.RegisterTrace(name, &workload.FlowTrace{Events: tc.events})
			c := cfg
			c.Workload.TracePath = workload.MemPrefix + name
			res, err := Run(c)
			if tc.skipped < 0 {
				if err == nil || !strings.Contains(err.Error(), "none of the 2 trace events matches a connection") {
					t.Fatalf("err = %v, want the no-match error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.TraceSkipped != tc.skipped {
				t.Fatalf("TraceSkipped = %d, want %d", res.TraceSkipped, tc.skipped)
			}
		})
	}
}
