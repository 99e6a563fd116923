package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run cdnasim's main instead of the
// tests, so a test drives the real command in a child process.
const runMainEnv = "CDNASIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTraceMatchingNothingExits1: replaying the checked-in incast trace
// under the default pairs pattern matches none of its rows (every row
// targets host 0, which pairs wires to host 1 only), so the command
// fails instead of printing a zero row.
func TestTraceMatchingNothingExits1(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-mode", "cdna", "-hosts", "4", "-workload", "trace",
		"-tracefile", "internal/workload/testdata/smoke_trace.csv")
	cmd.Dir = "../.."
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("exit = %v; want status 1\n%s", err, &stderr)
	}
	if want := "none of the 120 trace events matches a connection"; !strings.Contains(stderr.String(), want) || stdout.Len() > 0 {
		t.Fatalf("stderr lacks %q or stdout is not empty:\n%s%s", want, &stderr, &stdout)
	}
}
