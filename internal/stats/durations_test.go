package stats

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"cdna/internal/sim"
)

// wideNs is the first duration the four-byte store cannot hold.
const wideNs = sim.Time(1) << 32

// sortedQuantiles is the reference Quantiles must equal bit for bit:
// every sample converted to microseconds, sorted, and read at index
// ⌊q·(n−1)⌋ — what a store of float64 microseconds reported.
func sortedQuantiles(samples []sim.Time, qs []float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	us := make([]float64, len(samples))
	for i, v := range samples {
		us[i] = float64(v) / 1000
	}
	sort.Float64s(us)
	for i, q := range qs {
		out[i] = us[int(q*float64(len(us)-1))]
	}
	return out
}

func TestDurations(t *testing.T) {
	var d Durations
	if d.Count() != 0 || !slices.Equal(d.Quantiles(0.5, 1), []float64{0, 0}) {
		t.Fatal("empty store must report zeros")
	}
	for i := 1; i <= 100; i++ {
		d.Observe(sim.Time(i) * sim.Microsecond)
	}
	if d.Count() != 100 {
		t.Fatalf("Count = %d", d.Count())
	}
	if got := d.Quantiles(0.5, 1); !slices.Equal(got, []float64{50, 100}) {
		t.Fatalf("median, max = %v, want [50 100]", got)
	}
	// Observing after a quantile query must keep working.
	d.Observe(1000 * sim.Microsecond)
	if got := d.Quantiles(1)[0]; got != 1000 {
		t.Fatalf("max after re-observe = %v", got)
	}
	d.Reset()
	if d.Count() != 0 || d.Quantiles(0.5)[0] != 0 {
		t.Fatalf("after Reset: Count %d, median %v", d.Count(), d.Quantiles(0.5)[0])
	}
	d.Observe(wideNs)
	d.Observe(3)
	if d.Count() != 2 || !slices.Equal(d.Quantiles(0, 1), []float64{0.003, float64(wideNs) / 1000}) {
		t.Fatalf("after reuse: Count %d, min/max %v", d.Count(), d.Quantiles(0, 1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a negative duration must panic")
		}
	}()
	d.Observe(-1)
}

// TestQuantilesMatchSort: selecting order statistics on the integers
// must return exactly what sort-then-index returns on the microsecond
// floats, on random, heavily tied and sorted samples, across several
// blocks and past 2³² ns, at the smallest sizes, and for ranks asked in
// any order. One Selector serves every store, so a scratch buffer left
// dirty by a larger store is reused too.
func TestQuantilesMatchSort(t *testing.T) {
	rng := sim.NewRNG(7)
	inputs := map[string][]sim.Time{
		"n=1": {3500},
		"n=2": {9000, 1},
	}
	for _, n := range []int{3, 17, 100, 1000, 4099, 20000} {
		random, tied, wide := make([]sim.Time, n), make([]sim.Time, n), make([]sim.Time, n)
		for i := range random {
			random[i] = sim.Time(rng.Intn(200_000))
			tied[i] = sim.Time(rng.Intn(4)) * sim.Microsecond
			wide[i] = wideNs - 2 + sim.Time(rng.Intn(4))<<rng.Intn(8)
		}
		inputs[fmt.Sprintf("random n=%d", n)] = random
		inputs[fmt.Sprintf("tied n=%d", n)] = tied
		inputs[fmt.Sprintf("wide n=%d", n)] = wide
	}
	sortedAsc := make([]sim.Time, 1000)
	for i := range sortedAsc {
		sortedAsc[i] = sim.Time(i / 3)
	}
	inputs["sorted n=1000"] = sortedAsc
	qsets := [][]float64{
		{0.1, 0.3, 0.5, 0.7, 0.9},
		{0.5, 0.9},
		{0, 1},
		{0.9, 0.1, 0.5, 0.5, 0.99}, // out of order and repeated
	}
	var sel Selector
	for name, in := range inputs {
		var d Durations
		for _, v := range in {
			d.Observe(v)
		}
		if d.Count() != len(in) {
			t.Fatalf("%s: Count = %d, want %d", name, d.Count(), len(in))
		}
		for _, qs := range qsets {
			want := sortedQuantiles(in, qs)
			if got := d.Quantiles(qs...); !slices.Equal(got, want) {
				t.Fatalf("%s: Quantiles(%v) = %v, sort-then-index gives %v", name, qs, got, want)
			}
			for i, ns := range sel.Nanos(&d, qs...) {
				if us := float64(ns) / 1000; us != want[i] {
					t.Fatalf("%s: reused Selector rank %v = %v µs, want %v", name, qs[i], us, want[i])
				}
			}
		}
	}
}

// TestDurationsMemory gates the store's footprint. Observing again
// after Reset reuses the blocks and allocates nothing. A fresh store
// holding N samples has allocated at most 4·N bytes of samples, plus
// the unused tail of its newest block (under 4·maxBlock bytes), plus
// 128 bytes per block for the block list and the store itself. Copying
// the samples even once as they grow would break that bound.
func TestDurationsMemory(t *testing.T) {
	fill := func(d *Durations, n int) {
		for i := range n {
			d.Observe(sim.Time(i % 5000))
		}
	}
	var d Durations
	fill(&d, 50_000)
	if a := testing.AllocsPerRun(5, func() {
		d.Reset()
		fill(&d, 50_000)
	}); a != 0 {
		t.Fatalf("observing after Reset allocates %.1f/op, want 0", a)
	}
	for _, n := range []int{1, firstBlock, firstBlock + 1, maxBlock, 20_000, 1_000_000} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := new(Durations)
		fill(d, n)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		limit := uint64(4*n + 4*maxBlock + 128*len(d.blocks))
		if got > limit {
			t.Errorf("n=%d: a fresh store allocated %d bytes in %d blocks, over the %d-byte bound", n, got, len(d.blocks), limit)
		}
	}
}

// FuzzLatencyQuantiles checks Quantiles, and a Selector reused from
// another store, against sort-then-index on the microsecond floats.
// Each five bytes of data are one sample in little-endian nanoseconds,
// so samples reach 2⁴⁰ ns, past what the four-byte blocks hold. The
// store is Reset after the first reset samples, which the reference
// then forgets, and refilled; q is one more rank to ask for.
func FuzzLatencyQuantiles(f *testing.F) {
	samples := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), byte(v>>32))
		}
		return b
	}
	var many []uint64 // heavily tied, filling into a third block
	for i := range uint64(3*firstBlock + 8) {
		many = append(many, i*37%11*1000)
	}
	f.Add([]byte{}, uint16(0), 0.5)                                     // no samples
	f.Add(samples(1500), uint16(9), 0.5)                                // one sample
	f.Add(samples(7, 7, 7, 3, 7, 3, 3, 9), uint16(99), 0.25)            // ties
	f.Add(samples(1<<32-1, 1<<32, 3, 1<<32+1, 1<<39), uint16(99), 0.75) // at and past 2³² ns
	f.Add(samples(many...), uint16(firstBlock+6), 0.9)                  // Reset with two blocks in use, refill past them
	f.Add(samples(5, 1<<33, 6), uint16(2), 1.0)                         // Reset drops a wide sample
	f.Fuzz(func(t *testing.T, data []byte, reset uint16, q float64) {
		if !(q >= 0 && q <= 1) {
			t.Skip("rank outside [0, 1]")
		}
		var d Durations
		var kept []sim.Time
		for i := 0; i+5 <= len(data); i += 5 {
			if i/5 == int(reset) {
				d.Reset()
				kept = kept[:0]
			}
			v := sim.Time(data[i]) | sim.Time(data[i+1])<<8 | sim.Time(data[i+2])<<16 |
				sim.Time(data[i+3])<<24 | sim.Time(data[i+4])<<32
			d.Observe(v)
			kept = append(kept, v)
		}
		if d.Count() != len(kept) {
			t.Fatalf("Count = %d, want %d", d.Count(), len(kept))
		}
		qs := []float64{q, 0, 0.1, 0.5, 0.9, 0.99, 1}
		want := sortedQuantiles(kept, qs)
		if got := d.Quantiles(qs...); !slices.Equal(got, want) {
			t.Fatalf("Quantiles(%v) = %v, sort-then-index gives %v", qs, got, want)
		}
		var sel Selector
		var other Durations
		for i := range 3 * firstBlock {
			other.Observe(sim.Time(i))
		}
		sel.Nanos(&other, 0.5)
		for i, ns := range sel.Nanos(&d, qs...) {
			if us := float64(ns) / 1000; us != want[i] {
				t.Fatalf("reused Selector rank %v = %v µs, want %v", qs[i], us, want[i])
			}
		}
	})
}
