package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"cdna/internal/bench"
	"cdna/internal/sim"
	"cdna/internal/store"
	"cdna/internal/workload"
)

// TestCachedTraceReadOnce: a trace-driven cache miss keys the machine
// it built and runs that same machine, so the stored result belongs to
// the content its key hashed even while the trace file is rewritten
// underneath. A goroutine swaps the file between two contents as fast
// as it can; if the key and the run read the file separately, some
// trial stores one content's result under the other's key.
func TestCachedTraceReadOnce(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	contents := []string{
		"0.0005,1,0,1448\n0.0010,2,0,289600\n0.0015,3,0,72400\n",
		"0.0005,1,0,1448\n",
	}
	cfg := bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx)
	cfg.Hosts = 4
	cfg.Pattern = bench.PatternIncast
	cfg.Workload = workload.Spec{Kind: workload.Trace, TracePath: path}
	cfg.Warmup, cfg.Duration = 20*sim.Millisecond, 50*sim.Millisecond

	// What each content keys to and measures, read from a quiet file.
	want := map[string]string{}
	for _, c := range contents {
		if err := os.WriteFile(path, []byte(c), 0o600); err != nil {
			t.Fatal(err)
		}
		key, err := ResultKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(res)
		want[key] = string(b)
	}
	if len(want) != 2 {
		t.Fatal("the two trace contents share a key")
	}

	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; !stop.Load(); i++ {
			tmp := filepath.Join(dir, "next.csv")
			if os.WriteFile(tmp, []byte(contents[i%2]), 0o600) != nil || os.Rename(tmp, path) != nil {
				return
			}
		}
	}()
	defer func() { stop.Store(true); <-done }()

	for trial := 0; trial < 12; trial++ {
		s, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		out := CachedExec(s, nil)(cfg)
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		got, _ := json.Marshal(out.Result)
		matched := false
		for key, res := range want {
			if b, ok := s.Get(key); ok {
				matched = string(b) == res && string(got) == res
			}
		}
		if !matched {
			t.Fatalf("trial %d: the stored result is not the result of the content its key hashed", trial)
		}
	}
}
