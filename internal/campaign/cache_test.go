package campaign

import (
	"bytes"
	"os"
	"testing"

	"cdna/internal/bench"
	"cdna/internal/sim"
	"cdna/internal/store"
)

// tinyGrid returns a fast-running grid (very short windows) for cache
// tests: modes x dirs, real simulations.
func tinyGrid(modes []bench.Mode) []bench.Config {
	g := Grid{
		Modes:    modes,
		Dirs:     []bench.Direction{bench.Tx, bench.Rx},
		Warmup:   20 * sim.Millisecond,
		Duration: 50 * sim.Millisecond,
	}
	return g.Points()
}

// TestCachedExecByteIdentity: a sweep served from cache must emit JSON
// byte-identical to the computed sweep that filled it.
func TestCachedExecByteIdentity(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := tinyGrid([]bench.Mode{bench.ModeCDNA})

	var cold CacheStats
	coldOuts := Run(cfgs, Options{Workers: 1, Exec: CachedExec(s, &cold)})
	var warm CacheStats
	warmOuts := Run(cfgs, Options{Workers: 1, Exec: CachedExec(s, &warm)})

	if c := cold.Counts(); c.Hits != 0 || c.Misses != uint64(len(cfgs)) {
		t.Fatalf("cold counts = %+v; want 0 hits / %d misses", c, len(cfgs))
	}
	if c := warm.Counts(); c.Hits != uint64(len(cfgs)) || c.Misses != 0 {
		t.Fatalf("warm counts = %+v; want %d hits / 0 misses", c, len(cfgs))
	}
	var a, b bytes.Buffer
	if err := WriteJSON(&a, coldOuts); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, warmOuts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("cached sweep JSON differs from computed sweep JSON")
	}
	// And both match an uncached run entirely outside the cache path.
	var c bytes.Buffer
	if err := WriteJSON(&c, Run(cfgs, Options{Workers: 1})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("cached-path sweep JSON differs from plain Run JSON")
	}
}

// TestOverlappingSweepRunsOnlyDelta: re-submitting a grid that shares
// points with a completed sweep re-runs only the delta — the acceptance
// criterion behind incremental sweeps.
func TestOverlappingSweepRunsOnlyDelta(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := tinyGrid([]bench.Mode{bench.ModeXen}) // xen tx, xen rx
	var st1 CacheStats
	Run(first, Options{Workers: 2, Exec: CachedExec(s, &st1)})

	second := tinyGrid([]bench.Mode{bench.ModeXen, bench.ModeCDNA}) // shares the 2 xen points
	var st2 CacheStats
	outs := Run(second, Options{Workers: 2, Exec: CachedExec(s, &st2)})
	if err := Check(outs); err != nil {
		t.Fatal(err)
	}
	if c := st2.Counts(); c.Hits != 2 || c.Misses != uint64(len(second)-2) {
		t.Fatalf("overlap counts = %+v; want 2 hits / %d misses", c, len(second)-2)
	}
}

// TestResultKeyIdentity pins what is — and is not — experiment
// identity: the key is stable across recomputation and distinct along
// every result-changing axis.
func TestResultKeyIdentity(t *testing.T) {
	base := bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx)
	k1, err := ResultKey(base)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ResultKey(base)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("ResultKey is not deterministic")
	}

	other := base
	other.Dir = bench.Rx
	if k, _ := ResultKey(other); k == k1 {
		t.Fatal("direction change did not change the key")
	}
	longer := base
	longer.Duration *= 2
	if k, _ := ResultKey(longer); k == k1 {
		t.Fatal("duration change did not change the key")
	}

	multi := base
	multi.Hosts = 3
	multi.Pattern = bench.PatternIncast
	km1, err := ResultKey(multi)
	if err != nil {
		t.Fatal(err)
	}
	if km1 == k1 {
		t.Fatal("host axis did not change the key")
	}
}

// TestFailedExperimentNotCached: error outcomes are recomputed every
// time, never stored.
func TestFailedExperimentNotCached(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx)
	bad.Guests = 0 // fails Validate
	var cs CacheStats
	exec := CachedExec(s, &cs)
	for i := 0; i < 2; i++ {
		if out := exec(bad); out.Err == nil {
			t.Fatal("invalid config did not error")
		}
	}
	if c := cs.Counts(); c.Uncacheable != 2 || c.Hits != 0 {
		t.Fatalf("counts = %+v; want 2 uncacheable", c)
	}
	if n, err := s.Len(); err != nil || n != 0 {
		t.Fatalf("store holds %d entries (err %v); failed experiments must not be cached", n, err)
	}
}

// TestCorruptEntryRecomputed drives the store's corruption contract
// through the campaign layer: a damaged entry reads as a miss, the
// experiment recomputes, and the repaired entry serves hits again.
func TestCorruptEntryRecomputed(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyGrid([]bench.Mode{bench.ModeCDNA})[0]
	var cs CacheStats
	exec := CachedExec(s, &cs)
	first := exec(cfg)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	key, err := ResultKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-flip the stored payload on disk.
	raw, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x20
	if err := os.WriteFile(s.Path(key), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	second := exec(cfg)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if c := cs.Counts(); c.Hits != 0 || c.Misses != 2 {
		t.Fatalf("counts after corruption = %+v; want 0 hits / 2 misses", c)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("store corrupt counter = %d; want 1", st.Corrupt)
	}
	// The recompute repaired the entry; it round-trips byte-identically.
	third := exec(cfg)
	if third.Err != nil {
		t.Fatal(third.Err)
	}
	if c := cs.Counts(); c.Hits != 1 {
		t.Fatalf("repaired entry did not hit: %+v", c)
	}
	var a, b bytes.Buffer
	if err := WriteJSON(&a, []bench.Outcome{first}); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, []bench.Outcome{third}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repaired entry is not byte-identical to the original result")
	}
}
