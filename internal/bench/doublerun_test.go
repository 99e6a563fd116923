package bench

import (
	"encoding/json"
	"testing"

	"cdna/internal/core"
	"cdna/internal/sim"
)

// The byte-identity determinism contract at the single-experiment
// level: building and running the same multi-guest configuration twice
// must produce bit-for-bit identical results. This is the tripwire for
// any iteration-order dependence sneaking into the builders or the
// interrupt delivery path (per-context event channels are a dense
// slice, never a ranged-over map — see Hypervisor.HandleBitVectorIRQ).
func TestMultiGuestDoubleRunByteIdentical(t *testing.T) {
	opts := Opts{Warmup: 20 * sim.Millisecond, Duration: 60 * sim.Millisecond}
	if !testing.Short() {
		opts = Quick()
	}
	for _, tc := range []struct {
		name    string
		mode    Mode
		nic     NICKind
		hosts   int
		pattern Pattern
		fault   FaultKind
	}{
		{"Xen/RiceNIC", ModeXen, NICRice, 0, PatternPairs, FaultNone},
		{"Xen/Intel", ModeXen, NICIntel, 0, PatternPairs, FaultNone},
		{"CDNA", ModeCDNA, NICRice, 0, PatternPairs, FaultNone},
		// Multi-host: the switched fabric (per-port egress FIFOs, drops,
		// cross-host acks) must be just as byte-deterministic.
		{"CDNA/3h-incast", ModeCDNA, NICRice, 3, PatternIncast, FaultNone},
		{"Xen/4h-all2all", ModeXen, NICIntel, 4, PatternAllToAll, FaultNone},
		// Fault injection mid-window (link flap under incast): the
		// outage, the drops it forces, and the recovery must all replay
		// bit-for-bit.
		{"CDNA/3h-incast-flap", ModeCDNA, NICRice, 3, PatternIncast, FaultLinkFlap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.mode, tc.nic, Tx)
			cfg.Guests = 4 // multi-guest: many contexts per bit-vector IRQ
			if tc.hosts > 1 {
				cfg.Hosts = tc.hosts
				cfg.Pattern = tc.pattern
				cfg.Guests = 2 // clusters multiply hosts; keep the run tight
			}
			cfg.ConnsPerGuestPerNIC = connsFor(cfg.Guests)
			if tc.mode == ModeCDNA {
				cfg.Protection = core.ModeHypercall
			}
			cfg.Warmup, cfg.Duration = opts.Warmup, opts.Duration
			if tc.fault != FaultNone {
				cfg.Fault = FaultSpec{Kind: tc.fault, After: cfg.Duration / 4, Outage: cfg.Duration / 4}
			}
			run := func() []byte {
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				buf, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return buf
			}
			first, second := run(), run()
			if string(first) != string(second) {
				t.Fatalf("reruns differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
			}
		})
	}
}

// TestRestoreMidRunByteIdentical drives the experiment phases by hand
// and stops the engine mid-window, between fault injection and
// healing, before resuming it to the end: the result must be
// byte-identical to the uninterrupted Run, including across a live
// link-flap outage.
func TestRestoreMidRunByteIdentical(t *testing.T) {
	opts := Opts{Warmup: 20 * sim.Millisecond, Duration: 60 * sim.Millisecond}
	for _, tc := range []struct {
		name  string
		hosts int
		fault FaultKind
	}{
		{"CDNA/single", 0, FaultNone},
		{"CDNA/3h-incast-flap", 3, FaultLinkFlap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
			cfg.Guests = 2
			cfg.ConnsPerGuestPerNIC = connsFor(cfg.Guests)
			if tc.hosts > 1 {
				cfg.Hosts = tc.hosts
				cfg.Pattern = PatternIncast
			}
			cfg.Warmup, cfg.Duration = opts.Warmup, opts.Duration
			if tc.fault != FaultNone {
				cfg.Fault = FaultSpec{Kind: tc.fault, After: cfg.Duration / 4, Outage: cfg.Duration / 4}
			}
			whole, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Prepare(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := m.Config()
			m.Launch()
			m.RunTo(c.Warmup)
			m.OpenWindow()
			m.RunTo(c.Warmup + c.Duration*3/8)
			m.RunTo(c.Warmup + c.Duration)
			a, b := resultJSON(t, whole), resultJSON(t, m.Collect())
			if a != b {
				t.Fatalf("resumed run diverged:\n--- whole ---\n%s\n--- resumed ---\n%s", a, b)
			}
		})
	}
}

// resultJSON marshals a result for byte comparison.
func resultJSON(t *testing.T, res Result) string {
	t.Helper()
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}
