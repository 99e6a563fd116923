package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run cdnatables' main instead of the
// tests, so a test drives the real command in a child process.
const runMainEnv = "CDNATABLES_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagValidation: a selection that would print nothing, and stray
// arguments, exit with status 2 and say why before any table runs.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-table", "5"}, "cdnatables: -table 5: no such table (want 1-4; 0 runs every table)"},
		{[]string{"-table", "-1"}, "-table -1: no such table"},
		{[]string{"-figure", "2"}, "cdnatables: -figure 2: no such figure (want 3-4; 0 runs every figure)"},
		{[]string{"-quick", "2"}, `cdnatables: unexpected arguments ["2"]`},
		{[]string{"-workers", "-2"}, "cdnatables: -workers: -2 is negative"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
			t.Errorf("%v: exit = %v; want status 2\n%s", tc.args, err, &stderr)
		}
		if !strings.Contains(stderr.String(), tc.msg) || stdout.Len() > 0 {
			t.Errorf("%v: stderr lacks %q or stdout is not empty:\n%s%s", tc.args, tc.msg, &stderr, &stdout)
		}
	}
}
