package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"cdna/internal/campaign"
	"cdna/internal/store"
)

// runMainEnv makes the test binary run cdnasweep's main instead of the
// tests, so each test drives the real command in a child process: its
// flag parsing, its exit status, and a SIGKILL that lands mid-sweep.
const runMainEnv = "CDNASWEEP_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweepCmd returns a cdnasweep child process with the given arguments.
func sweepCmd(args ...string) (*exec.Cmd, *bytes.Buffer) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	return cmd, &stderr
}

// faultsArgs is the faults preset (8 experiments) at -quick windows on
// one worker, so a sweep takes a few seconds and lands its results one
// at a time.
func faultsArgs(jsonPath string, extra ...string) []string {
	return append([]string{"-preset", "faults", "-quick", "-workers", "1",
		"-progress=false", "-json", jsonPath}, extra...)
}

// sweep runs cdnasweep to completion, requires exit status 0 and
// returns its JSON output and stderr.
func sweep(t *testing.T, dir, name string, extra ...string) (jsonOut []byte, stderr string) {
	t.Helper()
	path := filepath.Join(dir, name+".json")
	cmd, errBuf := sweepCmd(faultsArgs(path, extra...)...)
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s run: %v\n%s", name, err, errBuf)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b, errBuf.String()
}

var cacheLine = regexp.MustCompile(`cache: (\d+) hits / (\d+) misses`)

// cacheCounts parses the hit/miss line a -store run prints on stderr.
func cacheCounts(t *testing.T, stderr string) (hits, misses int) {
	t.Helper()
	m := cacheLine.FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no cache line on stderr:\n%s", stderr)
	}
	hits, _ = strconv.Atoi(m[1])
	misses, _ = strconv.Atoi(m[2])
	return hits, misses
}

// TestKilledSweepResumesByRerun is the resumption contract of -store: a
// sweep SIGKILLed after some results landed, then rerun on the same
// store, serves exactly the landed results from the store, simulates
// the rest, and emits JSON byte-identical to an uninterrupted run
// without a store. A third run is fully cached and identical again.
func TestKilledSweepResumesByRerun(t *testing.T) {
	const total = 8
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	want, _ := sweep(t, dir, "reference")

	s, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	landed := func() int {
		n, err := s.Len()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	cmd, killedErr := sweepCmd(faultsArgs(filepath.Join(dir, "killed.json"), "-store", storeDir)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for landed() == 0 {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("no result landed in the store within 2 minutes\n%s", killedErr)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	err = cmd.Wait()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("killed sweep finished before the kill (wait: %v)", err)
	}
	if ws, ok := exitErr.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("killed sweep did not die by SIGKILL: %v\n%s", err, killedErr)
	}
	n := landed()
	if n >= total {
		t.Fatalf("all %d results landed before the kill; want some but not all", total)
	}

	got, stderr := sweep(t, dir, "rerun", "-store", storeDir)
	if hits, misses := cacheCounts(t, stderr); hits != n || misses != total-n {
		t.Fatalf("rerun cache = %d hits / %d misses; want %d / %d", hits, misses, n, total-n)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("rerun JSON differs from an uninterrupted run without a store")
	}

	got, stderr = sweep(t, dir, "cached", "-store", storeDir, "-require-hit-rate", "1")
	if hits, misses := cacheCounts(t, stderr); hits != total || misses != 0 {
		t.Fatalf("third run cache = %d hits / %d misses; want %d / 0", hits, misses, total)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fully cached JSON differs from an uninterrupted run without a store")
	}
}

// TestFlagValidation: rejected flag combinations exit with status 2 and
// say why, before any experiment runs.
func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(spec, []byte(`{"modes":["cdna"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		msg  string
	}{
		{"hit rate without store", []string{"-preset", "faults", "-require-hit-rate", "0.5"},
			"-require-hit-rate needs a cache: combine with -store"},
		{"hit rate above one", []string{"-preset", "faults", "-store", dir, "-require-hit-rate", "1.5"},
			"-require-hit-rate is a fraction in [0, 1]"},
		{"hit rate negative", []string{"-preset", "faults", "-store", dir, "-require-hit-rate", "-0.5"},
			"-require-hit-rate is a fraction in [0, 1]"},
		{"preset with spec", []string{"-preset", "faults", "-spec", spec},
			"-preset and -spec are mutually exclusive"},
		{"axis flag with preset", []string{"-preset", "faults", "-modes", "xen"},
			"-modes cannot be combined with -preset/-spec"},
		{"patterns without hosts", []string{"-modes", "cdna", "-patterns", "incast"},
			"-patterns requires -hosts"},
		{"undefined flag", []string{"-daemon"},
			"flag provided but not defined: -daemon"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd, stderr := sweepCmd(append(tc.args, "-json", "")...)
			err := cmd.Run()
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
				t.Fatalf("exit = %v; want status 2\n%s", err, stderr)
			}
			if !strings.Contains(stderr.String(), tc.msg) {
				t.Fatalf("stderr lacks %q:\n%s", tc.msg, stderr)
			}
		})
	}
}

// TestHelpNamesEveryPreset: -h lists exactly the presets the lookup
// accepts, in declaration order, and every one of them expands to a
// non-empty campaign.
func TestHelpNamesEveryPreset(t *testing.T) {
	cmd, stderr := sweepCmd("-h")
	if err := cmd.Run(); err != nil {
		t.Fatalf("-h: %v\n%s", err, stderr)
	}
	m := regexp.MustCompile(`canned campaign: ([a-z0-9 |]+)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("-h has no -preset line:\n%s", stderr)
	}
	help := strings.Split(strings.TrimSpace(m[1]), " | ")
	var accepted []string
	for _, s := range campaign.Sets() {
		accepted = append(accepted, s.Name)
		if len(presetGrids(s.Name)) == 0 {
			t.Errorf("preset %s expands to no grids", s.Name)
		}
	}
	if !slices.Equal(help, accepted) {
		t.Fatalf("-h lists presets %v; the lookup accepts %v", help, accepted)
	}
}
