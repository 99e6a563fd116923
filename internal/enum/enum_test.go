package enum_test

import (
	"encoding"
	"strings"
	"testing"

	"cdna/internal/bench"
	"cdna/internal/core"
	"cdna/internal/enum"
	"cdna/internal/topo"
	"cdna/internal/workload"
)

// textEnum is an enum whose text form is its token table.
type textEnum interface {
	~int
	encoding.TextMarshaler
}

// roundTrip checks one enum against its table: canonical tokens
// round-trip through MarshalText/UnmarshalText, every alias parses
// whatever its case and surrounding spaces, out-of-range values
// round-trip through the decimal form, and unknown words get an error
// naming every token.
func roundTrip[T textEnum, P interface {
	*T
	encoding.TextUnmarshaler
}](t *testing.T, tab *enum.Table[T]) {
	n := len(strings.Split(tab.List(), " | "))
	for v := range n {
		want := T(v)
		toks := tab.Tokens(want)
		b, err := want.MarshalText()
		if err != nil || string(b) != toks[0] {
			t.Errorf("%d encodes as %q, %v; want %q", v, b, err, toks[0])
		}
		var back T
		if err := P(&back).UnmarshalText(b); err != nil || back != want {
			t.Errorf("%q decodes to %d, %v; want %d", b, back, err, v)
		}
		for _, tok := range toks {
			for _, s := range []string{tok, strings.ToUpper(tok), " " + tok + "\t"} {
				if got, err := tab.Parse(s); err != nil || got != want {
					t.Errorf("Parse(%q) = %d, %v; want %d", s, got, err, v)
				}
			}
		}
	}
	for _, out := range []T{T(n), T(n + 6), -1} {
		b, err := out.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back T
		if err := P(&back).UnmarshalText(b); err != nil || back != out {
			t.Errorf("out-of-range %d encodes as %q and decodes to %d, %v", out, b, back, err)
		}
		if _, err := tab.Parse(string(b)); err == nil {
			t.Errorf("Parse accepted the decimal form %q", b)
		}
	}
	_, err := tab.Parse("wat")
	if err == nil {
		t.Fatal(`Parse("wat") accepted`)
	}
	if !strings.Contains(err.Error(), "(want "+tab.List()+")") {
		t.Errorf("error %q does not name every token", err)
	}
}

// displayParses checks that each value's display form parses back to it.
func displayParses[T interface {
	~int
	String() string
}](t *testing.T, tab *enum.Table[T], values ...T) {
	for _, v := range values {
		if got, err := tab.Parse(v.String()); err != nil || got != v {
			t.Errorf("display form %q parses to %v, %v", v.String(), got, err)
		}
	}
}

// TestEveryEnumRoundTrips runs the round trip over all nine
// experiment enums. Each display form (String) must parse back too, so
// "CDNA", "RiceNIC" and "transmit" stay valid input.
func TestEveryEnumRoundTrips(t *testing.T) {
	t.Run("bench.Mode", func(t *testing.T) { roundTrip(t, bench.Modes) })
	t.Run("bench.NICKind", func(t *testing.T) { roundTrip(t, bench.NICKinds) })
	t.Run("bench.Direction", func(t *testing.T) { roundTrip(t, bench.Directions) })
	t.Run("bench.Pattern", func(t *testing.T) { roundTrip(t, bench.Patterns) })
	t.Run("bench.FaultKind", func(t *testing.T) { roundTrip(t, bench.FaultKinds) })
	t.Run("core.Mode", func(t *testing.T) { roundTrip(t, core.Modes) })
	t.Run("workload.Kind", func(t *testing.T) { roundTrip(t, workload.Kinds) })
	t.Run("workload.SizeDist", func(t *testing.T) { roundTrip(t, workload.SizeDists) })
	t.Run("topo.FabricKind", func(t *testing.T) { roundTrip(t, topo.FabricKinds) })

	displayParses(t, bench.Modes, bench.ModeNative, bench.ModeXen, bench.ModeCDNA)
	displayParses(t, bench.NICKinds, bench.NICIntel, bench.NICRice)
	displayParses(t, bench.Directions, bench.Tx, bench.Rx, bench.Both)
	if k, err := topo.FabricKinds.Parse(" LeafSpine"); err != nil || k != topo.KindLeafSpine {
		t.Errorf(`FabricKinds.Parse(" LeafSpine") = %v, %v`, k, err)
	}
	if got := topo.FabricKind(7).String(); got != "FabricKind(7)" {
		t.Errorf("out-of-range display form = %q, want FabricKind(7)", got)
	}
}
