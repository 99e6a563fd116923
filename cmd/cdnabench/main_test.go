package main

import (
	"bytes"
	"strings"
	"testing"
)

// outputLine returns the compareMetrics output line for the named row.
func outputLine(t *testing.T, out, name string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) > 0 && f[0] == name {
			return l
		}
	}
	t.Fatalf("no output line for %s in:\n%s", name, out)
	return ""
}

// TestCompareMatchesRowsByName: rows are paired by name, not position,
// so a row deleted from (or added to) one report neither shifts the
// others nor gets gated itself.
func TestCompareMatchesRowsByName(t *testing.T) {
	old := []metric{
		{name: "a", ns: 100},
		{name: "gone", ns: 50},
		{name: "b", ns: 200},
	}
	cur := []metric{
		{name: "b", ns: 205},
		{name: "a", ns: 101},
		{name: "new", ns: 70},
	}
	var buf bytes.Buffer
	if compareMetrics(&buf, old, cur, 15) {
		t.Fatalf("rows matched by name should pass:\n%s", buf.String())
	}
	out := buf.String()
	if l := outputLine(t, out, "a"); !strings.Contains(l, "+1.0%") {
		t.Errorf("row a paired wrongly: %q", l)
	}
	if l := outputLine(t, out, "b"); !strings.Contains(l, "+2.5%") {
		t.Errorf("row b paired wrongly: %q", l)
	}
	for _, name := range []string{"gone", "new"} {
		if l := outputLine(t, out, name); !strings.Contains(l, "n/a") || strings.Contains(l, "<<") {
			t.Errorf("one-sided row %s should print n/a ungated: %q", name, l)
		}
	}
}

// TestCompareBaselineOnlyMeasurementIsNotGated: a row the baseline
// never measured (zero there) prints n/a whatever the current run shows.
func TestCompareBaselineOnlyMeasurementIsNotGated(t *testing.T) {
	var buf bytes.Buffer
	if compareMetrics(&buf, []metric{{name: "a", ns: 0}}, []metric{{name: "a", ns: 500}}, 15) {
		t.Fatalf("row absent from the baseline was gated:\n%s", buf.String())
	}
	if l := outputLine(t, buf.String(), "a"); !strings.Contains(l, "n/a") {
		t.Errorf("row absent from the baseline should print n/a: %q", l)
	}
}

// TestCompareMissingMeasurementFails: a row the baseline has but the
// current run measured as zero is a broken benchmark, not a speedup.
func TestCompareMissingMeasurementFails(t *testing.T) {
	var buf bytes.Buffer
	if !compareMetrics(&buf, []metric{{name: "a", ns: 100}}, []metric{{name: "a", ns: 0}}, 15) {
		t.Fatalf("unmeasured row passed:\n%s", buf.String())
	}
	if l := outputLine(t, buf.String(), "a"); !strings.Contains(l, "MISSING") {
		t.Errorf("unmeasured row should be flagged MISSING: %q", l)
	}
}

// TestCompareRegressionGated: a matched row slower than its tolerance
// still fails.
func TestCompareRegressionGated(t *testing.T) {
	var buf bytes.Buffer
	if !compareMetrics(&buf, []metric{{name: "a", ns: 100}}, []metric{{name: "a", ns: 150}}, 15) {
		t.Fatalf("50%% regression passed:\n%s", buf.String())
	}
	if l := outputLine(t, buf.String(), "a"); !strings.Contains(l, "REGRESSION") {
		t.Errorf("regressed row not flagged: %q", l)
	}
}
