package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"cdna/internal/bench"
	"cdna/internal/core"
	"cdna/internal/sim"
)

// testGrid is a small mixed grid with very short windows, cheap enough
// to run several times in one test.
func testGrid() []bench.Config {
	cfgs := Expand(Grid{
		Modes:  []bench.Mode{bench.ModeXen, bench.ModeCDNA},
		NICs:   []bench.NICKind{bench.NICIntel},
		Dirs:   []bench.Direction{bench.Tx, bench.Rx},
		Window: 24,
	})
	return Apply(cfgs, 20*sim.Millisecond, 50*sim.Millisecond)
}

// TestWorkerCountDeterminism is the campaign's core guarantee: the same
// grid run on 1 worker and on N workers yields byte-identical results,
// because every experiment owns a private deterministic engine.
func TestWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a dozen simulations")
	}
	var serial, parallel bytes.Buffer
	if err := WriteJSON(&serial, Run(testGrid(), Options{Workers: 1})); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&parallel, Run(testGrid(), Options{Workers: 4})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Errorf("1-worker and 4-worker runs differ:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			serial.String(), parallel.String())
	}
}

// TestTableRunnerDeterminism checks what cdnatables prints: Table 2
// rendered from a parallel campaign run must match the sequential run
// exactly.
func TestTableRunnerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six simulations")
	}
	set, table2 := setTable(t, "tables", "Table 2:")
	render := func(workers int) (string, []bench.Outcome) {
		cfgs := Apply(set.Points(table2), 20*sim.Millisecond, 50*sim.Millisecond)
		outs := Run(cfgs, Options{Workers: workers})
		if err := Check(outs); err != nil {
			t.Fatal(err)
		}
		return table2.Render(outs).String(), outs
	}
	seq, seqRes := render(1)
	par, parRes := render(4)
	if seq != par {
		t.Errorf("sequential and parallel Table 2 differ:\n%s\nvs\n%s", seq, par)
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Error("sequential and parallel Table 2 results differ")
	}
}

// TestErrorCaptureDoesNotAbort mixes healthy configurations with one
// that errors (unknown mode), one that fails validation (zero guests),
// and one that panics inside the simulator (a corrupted calibration
// with a negative per-packet cost trips the CPU model's assertion);
// the sweep must complete with the failures captured in place and the
// healthy experiments intact.
func TestErrorCaptureDoesNotAbort(t *testing.T) {
	good := bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx)
	good.Warmup, good.Duration = 10*sim.Millisecond, 20*sim.Millisecond

	bad := good
	bad.Mode = bench.Mode(99)

	invalid := good
	invalid.Guests = 0

	panicky := good
	panicky.Cal.StackNoTSO.TxData = -sim.Microsecond

	cfgs := []bench.Config{good, bad, invalid, panicky, good}
	outs := Run(cfgs, Options{Workers: 3})
	if len(outs) != len(cfgs) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(cfgs))
	}
	for _, i := range []int{0, 4} {
		if outs[i].Err != nil {
			t.Errorf("healthy config %d failed: %v", i, outs[i].Err)
		}
		if outs[i].Result.Mbps <= 0 {
			t.Errorf("healthy config %d measured %v Mb/s, want > 0", i, outs[i].Result.Mbps)
		}
	}
	if outs[1].Err == nil || !strings.Contains(outs[1].Err.Error(), "unknown mode") {
		t.Errorf("bad-mode config: err = %v, want unknown-mode error", outs[1].Err)
	}
	if outs[2].Err == nil || !strings.Contains(outs[2].Err.Error(), "at least one guest") {
		t.Errorf("zero-guest config: err = %v, want validation error", outs[2].Err)
	}
	if outs[3].Err == nil || !strings.Contains(outs[3].Err.Error(), "panicked") {
		t.Errorf("panicking config: err = %v, want captured panic", outs[3].Err)
	}
	if err := Check(outs); !errors.Is(err, ErrFailures) {
		t.Errorf("Check = %v, want ErrFailures", err)
	}
	if err := Check(outs[:1]); err != nil {
		t.Errorf("Check of healthy prefix = %v, want nil", err)
	}
}

// TestProgressReporting checks that the progress callback fires exactly
// once per experiment with a monotonically increasing completion count.
func TestProgressReporting(t *testing.T) {
	cfg := bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx)
	cfg.Warmup, cfg.Duration = 5*sim.Millisecond, 10*sim.Millisecond
	cfgs := []bench.Config{cfg, cfg, cfg}

	var seen []int
	Run(cfgs, Options{Workers: 2, Progress: func(done, total int, out bench.Outcome) {
		if total != len(cfgs) {
			t.Errorf("total = %d, want %d", total, len(cfgs))
		}
		seen = append(seen, done)
	}})
	if want := []int{1, 2, 3}; !reflect.DeepEqual(seen, want) {
		t.Errorf("progress counts = %v, want %v", seen, want)
	}
}

// readJSON reads a Record array written by WriteJSON.
func readJSON(r io.Reader) ([]Record, error) {
	var recs []Record
	if err := json.NewDecoder(r).Decode(&recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// TestJSONRoundTrip runs a tiny campaign (including one failure),
// writes it as JSON, reads it back, and checks the records survive.
func TestJSONRoundTrip(t *testing.T) {
	cfg := bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx)
	cfg.Warmup, cfg.Duration = 10*sim.Millisecond, 20*sim.Millisecond
	cfg.Protection = core.ModeIOMMU
	bad := cfg
	bad.Mode = bench.Mode(99)

	outs := Run([]bench.Config{cfg, bad}, Options{Workers: 1})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, outs); err != nil {
		t.Fatal(err)
	}
	recs, err := readJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Compare via JSON: the in-memory records differ only in Config.Cal,
	// which is deliberately excluded from serialization.
	again, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := json.Marshal(Records(outs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, orig) {
		t.Errorf("round-tripped records differ:\ngot  %s\nwant %s", again, orig)
	}
	if recs[0].Failed() || recs[0].Mbps <= 0 {
		t.Errorf("record 0: failed=%v mbps=%v, want success with throughput", recs[0].Failed(), recs[0].Mbps)
	}
	if recs[0].Result.Config.Protection != core.ModeIOMMU {
		t.Errorf("record 0 protection = %v, want iommu", recs[0].Result.Config.Protection)
	}
	if !recs[1].Failed() {
		t.Error("record 1 should carry the failure")
	}
}

// TestWriteCSV checks the CSV form: a header plus one row per
// experiment, with the error column populated on failures.
func TestWriteCSV(t *testing.T) {
	cfg := bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx)
	cfg.Warmup, cfg.Duration = 5*sim.Millisecond, 10*sim.Millisecond
	bad := cfg
	bad.Mode = bench.Mode(99)
	outs := Run([]bench.Config{cfg, bad}, Options{Workers: 1})

	var buf bytes.Buffer
	if err := WriteCSV(&buf, outs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d CSV lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "name,mode,nic,dir") {
		t.Errorf("unexpected CSV header: %s", lines[0])
	}
	if !strings.Contains(lines[1], "cdna") || strings.Contains(lines[1], "unknown mode") {
		t.Errorf("row 1 should be the healthy cdna run: %s", lines[1])
	}
	if !strings.Contains(lines[2], "unknown mode") {
		t.Errorf("row 2 should carry the error: %s", lines[2])
	}
}

// TestTables234GridExpansion pins the acceptance grid: the three I/O
// architectures in both directions plus the protection-off rows — the
// eight distinct experiments behind Tables 2–4.
func TestTables234GridExpansion(t *testing.T) {
	cfgs := Expand(setGrids(t, "tables")...)
	if len(cfgs) != 8 {
		t.Fatalf("Tables 2–4 grid has %d points, want 8", len(cfgs))
	}
	type key struct {
		m bench.Mode
		n bench.NICKind
		d bench.Direction
		p core.Mode
	}
	got := make(map[key]bool)
	for _, c := range cfgs {
		got[key{c.Mode, c.NIC, c.Dir, c.Protection}] = true
		if c.Guests != 1 || c.NICs != 2 {
			t.Errorf("%s: guests=%d nics=%d, want 1 guest 2 NICs", c.Name(), c.Guests, c.NICs)
		}
	}
	for _, d := range []bench.Direction{bench.Tx, bench.Rx} {
		for _, want := range []key{
			{bench.ModeXen, bench.NICIntel, d, core.ModeHypercall},
			{bench.ModeXen, bench.NICRice, d, core.ModeHypercall},
			{bench.ModeCDNA, bench.NICRice, d, core.ModeHypercall},
			{bench.ModeCDNA, bench.NICRice, d, core.ModeOff},
		} {
			if !got[want] {
				t.Errorf("missing grid point %+v", want)
			}
		}
	}
}

// TestExpandDeduplicates checks both the in-grid axis collapsing (the
// protection axis is meaningless outside CDNA) and cross-grid
// deduplication in Expand.
func TestExpandDeduplicates(t *testing.T) {
	g := Grid{
		Modes:       []bench.Mode{bench.ModeXen},
		Dirs:        []bench.Direction{bench.Tx},
		Protections: []core.Mode{core.ModeHypercall, core.ModeOff},
	}
	if cfgs := g.Points(); len(cfgs) != 1 {
		t.Errorf("Xen grid with a protection axis expands to %d points, want 1 (axis is CDNA-only)", len(cfgs))
	}
	if cfgs := Expand(g, g); len(cfgs) != 1 {
		t.Errorf("Expand(g, g) has %d points, want 1", len(cfgs))
	}
	paper := Expand(PaperGrids()...)
	seen := make(map[bench.Config]bool)
	for _, c := range paper {
		c.Cal = bench.Calibration{}
		if seen[c] {
			t.Errorf("paper grid contains duplicate %s", c.Name())
		}
		seen[c] = true
	}
	// The paper campaign must cover the acceptance grid (Tables 2–4).
	for _, want := range Expand(setGrids(t, "tables")...) {
		want.Cal = bench.Calibration{}
		if !seen[want] {
			t.Errorf("paper grid missing Tables 2–4 point %s", want.Name())
		}
	}
}

// TestGridSpecJSON parses a -spec style grid file with string enums and
// checks it round-trips through campaign.Grid's JSON form.
func TestGridSpecJSON(t *testing.T) {
	spec := `{
		"modes": ["xen", "cdna"],
		"nics": ["intel"],
		"dirs": ["tx", "rx"],
		"guests": [1, 4],
		"protections": ["hypercall", "off"],
		"window": 24
	}`
	grids, err := ReadGrids(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 1 {
		t.Fatalf("got %d grids, want 1", len(grids))
	}
	g := grids[0]
	if !reflect.DeepEqual(g.Modes, []bench.Mode{bench.ModeXen, bench.ModeCDNA}) ||
		!reflect.DeepEqual(g.Dirs, []bench.Direction{bench.Tx, bench.Rx}) ||
		g.Window != 24 {
		t.Errorf("parsed grid = %+v", g)
	}
	// Xen×{tx,rx}×{1,4} plus CDNA×{tx,rx}×{1,4}×{hypercall,off}.
	if cfgs := Expand(g); len(cfgs) != 12 {
		t.Errorf("spec expands to %d points, want 12", len(cfgs))
	}
	// An omitted direction axis collapses to transmit, like every
	// other axis, rather than expanding to nothing.
	if cfgs := (Grid{}).Points(); len(cfgs) != 1 || cfgs[0].Dir != bench.Tx {
		t.Errorf("zero grid expands to %v, want one default transmit point", cfgs)
	}
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ReadGrids(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again[0], g) {
		t.Errorf("grid does not round-trip: %s", b)
	}
	if _, err := ReadGrids(strings.NewReader(`{"modes": ["vmware"]}`)); err == nil {
		t.Error("unknown mode token should fail to parse")
	}
	// A bad token inside an array spec must surface the token error,
	// not a structural object-vs-array complaint.
	if _, err := ReadGrids(strings.NewReader(`[{"modes": ["vmware"]}]`)); err == nil || !strings.Contains(err.Error(), "vmware") {
		t.Errorf("array spec error = %v, want the unknown-mode diagnostic", err)
	}
	// The engine-partition axis is gone: a spec still naming it must be
	// rejected as an unknown field, not silently run on one engine.
	if _, err := ReadGrids(strings.NewReader(`{"modes": ["cdna"], "hosts": [4], "shards": [2, 4]}`)); err == nil || !strings.Contains(err.Error(), `unknown field "shards"`) {
		t.Errorf("spec with a shards axis: error = %v, want the unknown-field diagnostic", err)
	}
}
