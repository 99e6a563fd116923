package campaign

import (
	"slices"
	"strings"
	"testing"

	"cdna/internal/bench"
	"cdna/internal/topo"
)

// setGrids returns the grids of the named set.
func setGrids(t *testing.T, name string) []Grid {
	t.Helper()
	set, ok := Named(name)
	if !ok {
		t.Fatalf("no set %q", name)
	}
	return set.Grids
}

// setTable returns the table of set name whose title starts with title.
func setTable(t *testing.T, name, title string) (Set, Table) {
	t.Helper()
	set, ok := Named(name)
	if !ok {
		t.Fatalf("no set %q", name)
	}
	for _, tbl := range set.Tables {
		if strings.HasPrefix(tbl.Title, title) {
			return set, tbl
		}
	}
	t.Fatalf("set %q has no table %q", name, title)
	return set, Table{}
}

// TestPaperSetNames pins the paper set, point by point and in order:
// perfbench's paper digests hash exactly this list, so an edit to the
// set table that would move them fails here first.
func TestPaperSetNames(t *testing.T) {
	var got []string
	for _, cfg := range Expand(PaperGrids()...) {
		got = append(got, cfg.Name())
	}
	want := []string{
		"Native/Intel/1g/6nic/transmit",
		"Native/Intel/1g/6nic/receive",
		"Xen/Intel/1g/2nic/transmit",
		"Xen/Intel/1g/2nic/receive",
		"Xen/RiceNIC/1g/2nic/transmit",
		"Xen/RiceNIC/1g/2nic/receive",
		"CDNA/RiceNIC/1g/2nic/transmit",
		"CDNA/RiceNIC/1g/2nic/transmit/prot=off",
		"CDNA/RiceNIC/1g/2nic/receive",
		"CDNA/RiceNIC/1g/2nic/receive/prot=off",
		"Xen/Intel/2g/2nic/transmit",
		"Xen/Intel/4g/2nic/transmit",
		"Xen/Intel/8g/2nic/transmit",
		"Xen/Intel/12g/2nic/transmit",
		"Xen/Intel/16g/2nic/transmit",
		"Xen/Intel/20g/2nic/transmit",
		"Xen/Intel/24g/2nic/transmit",
		"Xen/Intel/2g/2nic/receive",
		"Xen/Intel/4g/2nic/receive",
		"Xen/Intel/8g/2nic/receive",
		"Xen/Intel/12g/2nic/receive",
		"Xen/Intel/16g/2nic/receive",
		"Xen/Intel/20g/2nic/receive",
		"Xen/Intel/24g/2nic/receive",
		"CDNA/RiceNIC/2g/2nic/transmit",
		"CDNA/RiceNIC/4g/2nic/transmit",
		"CDNA/RiceNIC/8g/2nic/transmit",
		"CDNA/RiceNIC/12g/2nic/transmit",
		"CDNA/RiceNIC/16g/2nic/transmit",
		"CDNA/RiceNIC/20g/2nic/transmit",
		"CDNA/RiceNIC/24g/2nic/transmit",
		"CDNA/RiceNIC/2g/2nic/receive",
		"CDNA/RiceNIC/4g/2nic/receive",
		"CDNA/RiceNIC/8g/2nic/receive",
		"CDNA/RiceNIC/12g/2nic/receive",
		"CDNA/RiceNIC/16g/2nic/receive",
		"CDNA/RiceNIC/20g/2nic/receive",
		"CDNA/RiceNIC/24g/2nic/receive",
		"CDNA/RiceNIC/8g/2nic/transmit/directirq",
		"CDNA/RiceNIC/1g/2nic/transmit/batch=1",
		"CDNA/RiceNIC/1g/2nic/transmit/batch=2",
		"CDNA/RiceNIC/1g/2nic/transmit/batch=4",
		"CDNA/RiceNIC/1g/2nic/transmit/batch=8",
		"CDNA/RiceNIC/1g/2nic/transmit/batch=16",
		"CDNA/RiceNIC/1g/2nic/transmit/prot=iommu",
		"CDNA/RiceNIC/1g/2nic/transmit/coal=2",
		"CDNA/RiceNIC/1g/2nic/transmit/coal=4",
		"CDNA/RiceNIC/1g/2nic/transmit/coal=8",
		"CDNA/RiceNIC/1g/2nic/transmit/coal=12",
		"CDNA/RiceNIC/1g/2nic/transmit/coal=24",
		"CDNA/RiceNIC/1g/2nic/transmit/coal=48",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("paper set is\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestSetNamesUnique: every set has its own name and title, so
// -preset and the help text are unambiguous.
func TestSetNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Sets() {
		if s.Name == "" || s.Title == "" || seen[s.Name] {
			t.Errorf("set %q: empty or duplicate name, or no title", s.Name)
		}
		seen[s.Name] = true
		if len(Expand(s.Grids...)) == 0 {
			t.Errorf("set %q expands to no experiments", s.Name)
		}
	}
}

// TestSetTablesCoverPoints: a set cdnatables prints prints all of it —
// every point is a row of at least one of its tables, and every table
// has a row — so the printed tables and -preset's records are the
// same experiments.
func TestSetTablesCoverPoints(t *testing.T) {
	for _, s := range Sets() {
		if len(s.Tables) == 0 {
			continue
		}
		if got, all := len(s.Points(s.Tables...)), len(s.Points()); got != all {
			t.Errorf("set %q: its tables read %d of its %d points", s.Name, got, all)
		}
		for _, tbl := range s.Tables {
			if len(s.Points(tbl)) == 0 {
				t.Errorf("set %q: table %q reads no point", s.Name, tbl.Title)
			}
		}
	}
}

// TestScenarioSetPoints pins the scenario sets' resolved shapes:
// topology is incast at 2/4/8 hosts, pairs at 4, all-to-all at 4 and
// 8, and churn at 4; the fault set is the 3-host incast under four
// scenarios on the default (quarter-window) schedule; the fabric sets
// spell the 1:1 default oversubscription as zero.
func TestScenarioSetPoints(t *testing.T) {
	count := func(name string, match func(bench.Config) bool) (n int) {
		for _, cfg := range Expand(setGrids(t, name)...) {
			if match(cfg) {
				n++
			}
		}
		return n
	}
	all := func(bench.Config) bool { return true }
	for _, tc := range []struct {
		set  string
		want int
	}{{"topology", 14}, {"faults", 8}, {"fabrics", 15}, {"openloop", 12}} {
		if n := count(tc.set, all); n != tc.want {
			t.Errorf("set %s has %d points, want %d", tc.set, n, tc.want)
		}
	}
	if n := count("topology", func(c bench.Config) bool { return c.Hosts == 8 && c.Pattern == bench.PatternAllToAll }); n != 2 {
		t.Errorf("topology has %d all-to-all points at 8 hosts, want 2 (Xen, CDNA)", n)
	}
	if n := count("faults", func(c bench.Config) bool { return c.Fault.Outage != 0 }); n != 0 {
		t.Errorf("%d fault points carry an explicit schedule, want the default", n)
	}
	for _, name := range []string{"fabrics", "openloop"} {
		if n := count(name, func(c bench.Config) bool { return c.Fabric.Oversub == 1 }); n != 0 {
			t.Errorf("set %s spells the default oversubscription as 1 in %d points, want 0", name, n)
		}
		if n := count(name, func(c bench.Config) bool { return c.Fabric.Kind == topo.KindToR && c.Fabric != (topo.FabricSpec{}) }); n != 0 {
			t.Errorf("set %s has %d non-zero ToR specs", name, n)
		}
	}
}

// TestSetTablesRender renders every printed table from stand-in
// outcomes (no simulation): each table prints one row per point it
// reads — one per Xen/CDNA pair for the figures — with one cell per
// column, and ignores the points of the set's other tables.
func TestSetTablesRender(t *testing.T) {
	for _, s := range Sets() {
		var outs []bench.Outcome
		for i, cfg := range s.Points() {
			outs = append(outs, bench.Outcome{Config: cfg, Result: bench.Result{Config: cfg, Mbps: float64(i + 1)}})
		}
		for _, tbl := range s.Tables {
			want := len(s.Points(tbl))
			if s.Name == "figures" {
				want /= 2
			}
			got := tbl.Render(outs)
			if len(got.Rows) != want {
				t.Errorf("%s: %d rows, want %d", tbl.Title, len(got.Rows), want)
			}
			for _, row := range got.Rows {
				if len(row) != len(got.Header) {
					t.Errorf("%s: row %q has %d cells for %d columns", tbl.Title, row, len(row), len(got.Header))
				}
			}
		}
	}
	// Table 1 prints by direction, not in the set's native-first order.
	_, table1 := setTable(t, "table1", "Table 1:")
	set, _ := Named("table1")
	var outs []bench.Outcome
	for _, cfg := range set.Points() {
		outs = append(outs, bench.Outcome{Config: cfg})
	}
	var dirs []string
	for _, row := range table1.Render(outs).Rows {
		dirs = append(dirs, row[1])
	}
	if want := []string{"transmit", "transmit", "receive", "receive"}; !slices.Equal(dirs, want) {
		t.Errorf("Table 1 directions %v, want %v", dirs, want)
	}
}
