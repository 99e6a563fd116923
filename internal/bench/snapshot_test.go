package bench

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cdna/internal/sim"
	"cdna/internal/snap"
	"cdna/internal/topo"
	"cdna/internal/transport"
	"cdna/internal/workload"
)

// resultJSON marshals a result for byte comparison.
func resultJSON(t *testing.T, res Result) string {
	t.Helper()
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// runWithSnapshot runs cfg cold, snapshotting the machine at snapAt,
// and returns the final result plus the image. The phase transitions
// are exactly runMachine's; the snapshot slots in wherever snapAt
// falls.
func runWithSnapshot(t *testing.T, cfg Config, snapAt sim.Time) (Result, []byte) {
	t.Helper()
	m, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = m.Config()
	m.Launch()
	var img []byte
	snap := func() {
		if img, err = m.Snapshot(); err != nil {
			t.Fatalf("snapshot at %v: %v", snapAt, err)
		}
	}
	if snapAt < cfg.Warmup {
		m.RunTo(snapAt)
		snap()
		m.RunTo(cfg.Warmup)
		m.OpenWindow()
	} else {
		m.RunTo(cfg.Warmup)
		m.OpenWindow()
		m.RunTo(snapAt)
		snap()
	}
	m.RunTo(cfg.Warmup + cfg.Duration)
	return m.Collect(), img
}

// resumeFromSnapshot restores the image into a freshly built machine
// and runs the remaining phases.
func resumeFromSnapshot(t *testing.T, cfg Config, snapAt sim.Time, img []byte) Result {
	t.Helper()
	m, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = m.Config()
	if err := m.Restore(img); err != nil {
		t.Fatalf("restore at %v: %v", snapAt, err)
	}
	if snapAt < cfg.Warmup {
		m.RunTo(cfg.Warmup)
		m.OpenWindow()
	}
	m.RunTo(cfg.Warmup + cfg.Duration)
	return m.Collect()
}

// TestSnapshotRoundTripRandom is the round-trip byte-identity property
// test: for a set of seeds, a pseudo-randomly drawn configuration
// (architecture, rack size, traffic pattern, workload shape) runs cold
// with a snapshot taken at a random tick — before, at, or inside the
// measurement window — and then a second machine restores the image
// and runs the remainder. Both must produce byte-identical result
// JSON: the snapshot captured everything, and restore put back exactly
// what was captured.
func TestSnapshotRoundTripRandom(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	combos := []struct {
		mode Mode
		nic  NICKind
	}{
		{ModeCDNA, NICRice},
		{ModeXen, NICRice},
		{ModeXen, NICIntel},
		{ModeNative, NICIntel},
	}
	hostChoices := []int{1, 3, 4}
	patterns := []Pattern{PatternPairs, PatternIncast, PatternAllToAll}
	kinds := []workload.Kind{workload.Bulk, workload.RequestResponse, workload.Churn}
	dirs := []Direction{Tx, Rx, Both}

	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := sim.NewRNG(uint64(seed)*0x9e3779b9 + 7)
			combo := combos[rng.Intn(len(combos))]
			cfg := DefaultConfig(combo.mode, combo.nic, dirs[rng.Intn(len(dirs))])
			cfg.Warmup = 20 * sim.Millisecond
			cfg.Duration = 40 * sim.Millisecond
			cfg.Guests = 1 + rng.Intn(3)
			cfg.ConnsPerGuestPerNIC = connsFor(cfg.Guests)
			cfg.Workload.Kind = kinds[rng.Intn(len(kinds))]
			if hosts := hostChoices[rng.Intn(len(hostChoices))]; hosts > 1 {
				cfg.Hosts = hosts
				cfg.Pattern = patterns[rng.Intn(len(patterns))]
				cfg.Guests = 2 // clusters multiply hosts; keep the run tight
				cfg.ConnsPerGuestPerNIC = connsFor(cfg.Guests)
			}
			// Random tick anywhere in the run, including exactly at window
			// open (the restored run must then not re-open it).
			total := cfg.Warmup + cfg.Duration
			snapAt := sim.Time(rng.Uint64() % uint64(total))
			if rng.Intn(8) == 0 {
				snapAt = cfg.Warmup
			}
			t.Logf("%s snapshot at %v", cfg.Name(), snapAt)

			cold, img := runWithSnapshot(t, cfg, snapAt)
			resumed := resumeFromSnapshot(t, cfg, snapAt, img)
			a, b := resultJSON(t, cold), resultJSON(t, resumed)
			if a != b {
				t.Fatalf("restored run diverged from cold run:\n--- cold ---\n%s\n--- restored ---\n%s", a, b)
			}
		})
	}
}

// TestSnapshotRoundTripFault pins the round trip across a fault
// scenario's whole lifecycle: snapshots taken while a link-flap is
// armed, active, and healed must all restore into byte-identical
// completions (the injector's phase is part of the image).
func TestSnapshotRoundTripFault(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Hosts = 3
	cfg.Pattern = PatternIncast
	cfg.Guests = 2
	cfg.ConnsPerGuestPerNIC = connsFor(cfg.Guests)
	cfg.Warmup = 20 * sim.Millisecond
	cfg.Duration = 40 * sim.Millisecond
	cfg.Fault = FaultSpec{Kind: FaultLinkFlap, After: 10 * sim.Millisecond, Outage: 10 * sim.Millisecond}

	for _, tc := range []struct {
		name   string
		snapAt sim.Time
	}{
		{"armed", cfg.Warmup + 5*sim.Millisecond},
		{"active", cfg.Warmup + 15*sim.Millisecond},
		{"healed", cfg.Warmup + 25*sim.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cold, img := runWithSnapshot(t, cfg, tc.snapAt)
			resumed := resumeFromSnapshot(t, cfg, tc.snapAt, img)
			a, b := resultJSON(t, cold), resultJSON(t, resumed)
			if a != b {
				t.Fatalf("restored run diverged from cold run:\n--- cold ---\n%s\n--- restored ---\n%s", a, b)
			}
			if cold.LinkDrops == 0 {
				t.Fatal("link flap dropped no frames; the fault did not bite")
			}
		})
	}
}

// TestWarmStartForkByteIdentical pins the warm-start contract: forking
// a grid of fault variants off one shared warmup snapshot produces
// outcomes byte-identical to cold runs, while simulating the warmup
// only once per group.
func TestWarmStartForkByteIdentical(t *testing.T) {
	base := DefaultConfig(ModeCDNA, NICRice, Tx)
	base.Hosts = 3
	base.Pattern = PatternIncast
	base.Guests = 2
	base.ConnsPerGuestPerNIC = connsFor(base.Guests)
	base.Warmup = 20 * sim.Millisecond
	base.Duration = 40 * sim.Millisecond

	grid := make([]Config, 0, 4)
	for _, f := range []FaultSpec{
		{},
		{Kind: FaultLinkFlap, After: 10 * sim.Millisecond, Outage: 10 * sim.Millisecond},
		{Kind: FaultPortFail, After: 10 * sim.Millisecond, Outage: 10 * sim.Millisecond},
		{Kind: FaultBlackout, After: 10 * sim.Millisecond, Outage: 5 * sim.Millisecond},
	} {
		cfg := base
		cfg.Fault = f
		grid = append(grid, cfg)
	}

	forked, stats, err := RunWarmForked(grid)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Groups != 1 {
		t.Fatalf("grid shares one warm base, got %d groups", stats.Groups)
	}
	if stats.EventsSaved == 0 {
		t.Fatal("warm-start fork saved no warmup events")
	}
	for i, cfg := range grid {
		if forked[i].Err != nil {
			t.Fatalf("%s: %v", cfg.Name(), forked[i].Err)
		}
		cold, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b := resultJSON(t, cold), resultJSON(t, forked[i].Result)
		if a != b {
			t.Fatalf("%s: warm fork diverged from cold run:\n--- cold ---\n%s\n--- forked ---\n%s", cfg.Name(), a, b)
		}
	}
}

// TestSnapshotRejectsMismatch pins the identity checks: an image must
// not restore into a machine built from a structurally different
// configuration, and corrupt bytes must not decode.
func TestSnapshotRejectsMismatch(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Warmup = 5 * sim.Millisecond
	cfg.Duration = 10 * sim.Millisecond
	m, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Launch()
	m.RunTo(2 * sim.Millisecond)
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Guests = 2
	other.ConnsPerGuestPerNIC = connsFor(other.Guests)
	om, err := Prepare(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := om.Restore(img); err == nil {
		t.Fatal("restore into a different configuration succeeded")
	}

	m2, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(img[:len(img)-4]); err == nil {
		t.Fatal("restore of a truncated image succeeded")
	}
	if err := m2.Restore([]byte("not a snapshot")); err == nil {
		t.Fatal("restore of garbage succeeded")
	}
	// The intact image still restores (the guards above did not corrupt
	// the fresh machine's ability to accept it).
	if err := m2.Restore(img); err != nil {
		t.Fatal(err)
	}
}

// machineStateV1 is the version-1 machine image: one engine and one
// workload generator image per engine of the machine.
type machineStateV1 struct {
	Engines    []sim.EngineState
	Hosts      []hostState
	Fabric     *topo.FabricState
	Conns      []transport.ConnState
	Work       []workload.GeneratorState
	FaultPhase int
}

// TestSnapshotRejectsVersion1Image: an image in the old list-per-engine
// format must fail on its version, naming both versions, before its
// state is decoded into the one-engine layout.
func TestSnapshotRejectsVersion1Image(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Hosts = 2
	cfg.Pattern = PatternPairs
	cfg.Warmup = 5 * sim.Millisecond
	cfg.Duration = 10 * sim.Millisecond
	m, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Launch()
	m.RunTo(2 * sim.Millisecond)
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var st machineState
	h, err := snap.Decode(img, &st)
	if err != nil {
		t.Fatal(err)
	}

	// Re-encode the same machine in the version-1 envelope and layout.
	h.Version = 1
	var buf bytes.Buffer
	buf.WriteString("CDNASNAP")
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(h); err != nil {
		t.Fatal(err)
	}
	v1 := machineStateV1{
		Engines: []sim.EngineState{st.Engine}, Hosts: st.Hosts, Fabric: st.Fabric,
		Conns: st.Conns, Work: []workload.GeneratorState{st.Work}, FaultPhase: st.FaultPhase,
	}
	if err := enc.Encode(v1); err != nil {
		t.Fatal(err)
	}

	fresh, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = fresh.Restore(buf.Bytes())
	if err == nil || !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), fmt.Sprintf("v%d", snap.Version)) {
		t.Fatalf("restore of a v1 image: error = %v, want a version error naming v1 and v%d", err, snap.Version)
	}
	if err := fresh.Restore(img); err != nil {
		t.Fatalf("current image rejected after the v1 attempt: %v", err)
	}
}
