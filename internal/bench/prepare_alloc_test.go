package bench

import (
	"runtime"
	"testing"
)

// prepareAllocBytes returns the bytes allocated by one Prepare of cfg,
// the smaller of two runs so one-time lazy initialization elsewhere in
// the process is not charged to machine assembly.
func prepareAllocBytes(t *testing.T, cfg Config) uint64 {
	t.Helper()
	best := ^uint64(0)
	var ms runtime.MemStats
	for range 2 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		m, err := Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
		runtime.KeepAlive(m)
	}
	return best
}

// TestPrepareAllocBudget gates the bytes one machine assembly allocates.
// A CDNA machine's buffer pools put ~147k pages in the page table, so
// this catches a page table that builds entries for untouched pages,
// regrows pointers or copies on growth, or buffer pools that go back to
// slices of frame numbers. The 24-guest budget is the measured 1.42 MB
// plus 5%. It must not run in parallel: TotalAlloc is process-wide.
func TestPrepareAllocBudget(t *testing.T) {
	const mb = 1e6
	for _, tc := range []struct {
		guests int
		budget uint64
	}{
		{1, 1 * mb},
		{24, 1.49 * mb},
	} {
		cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
		cfg.Guests = tc.guests
		cfg.ConnsPerGuestPerNIC = 0 // Prepare balances it for the guest count
		got := prepareAllocBytes(t, cfg)
		t.Logf("cdna tx %d guests: Prepare allocated %.2f MB", tc.guests, float64(got)/mb)
		if got >= tc.budget {
			t.Errorf("cdna tx %d guests: Prepare allocated %.2f MB, budget %.2f MB",
				tc.guests, float64(got)/mb, float64(tc.budget)/mb)
		}
	}
}

// retainedHeapBytes returns the heap a machine for cfg keeps live at
// the end of its measurement window: the live heap after a collection
// then, less the live heap before Prepare.
func retainedHeapBytes(t *testing.T, cfg Config) uint64 {
	t.Helper()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	m, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Launch()
	m.RunTo(m.cfg.Warmup)
	m.OpenWindow()
	m.RunTo(m.cfg.Warmup + m.cfg.Duration)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(m)
	return ms.HeapAlloc - before
}

// TestRetainedHeapBudget gates what a many-guest CDNA machine keeps
// live after a Quick() window: its page table (built only for the
// chunks whose pages changed), rings, buffer pools (16-bit page
// offsets) and per-context protection state (one pin word per
// outstanding descriptor, no pooled start-up descriptor image). The
// budget is the measured 5.51 MB plus 5%. It must not run in parallel:
// the live heap is process-wide.
func TestRetainedHeapBudget(t *testing.T) {
	const mb = 1e6
	const budget = 5.8 * mb
	cfg := Quick().apply(DefaultConfig(ModeCDNA, NICRice, Tx))
	cfg.Guests = 24
	cfg.ConnsPerGuestPerNIC = 0
	got := retainedHeapBytes(t, cfg)
	t.Logf("cdna tx 24 guests: %.2f MB live at window end", float64(got)/mb)
	if got >= budget {
		t.Errorf("cdna tx 24 guests: %.2f MB live at window end, budget %.1f MB", float64(got)/mb, budget/mb)
	}
}
