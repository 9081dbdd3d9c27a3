package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run main() instead of the tests, so
// each case exercises the real command line, flag parsing and exit
// status in a child process.
const runMainEnv = "ANALYZE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runAnalyze re-executes the test binary as `analyze args...` and
// returns its exit code and standard error.
func runAnalyze(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	default:
		t.Fatalf("running analyze %v: %v", args, err)
		return 0, ""
	}
}

// TestUnknownCommandIsUsageError pins that a first word analyze does
// not know — a typo, or the removed bench-check — fails fast with a
// message naming the word, instead of falling through to the figure
// suite, building a scenario and exiting 0.
func TestUnknownCommandIsUsageError(t *testing.T) {
	for _, tc := range []struct {
		word string
		args []string
	}{
		{"bench-check", []string{"bench-check", "-portable", "-base", "a.json", "-fresh", "b.json"}},
		{"timelin", []string{"timelin", "x.jsonl"}},
		{"timelin", []string{"-scale", "small", "timelin", "x.jsonl"}},
	} {
		code, stderr := runAnalyze(t, tc.args...)
		if code == 0 {
			t.Errorf("analyze %v exited 0, want a usage error", tc.args)
		}
		if !strings.Contains(stderr, tc.word) {
			t.Errorf("analyze %v: stderr %q does not name %q", tc.args, stderr, tc.word)
		}
		if strings.Contains(stderr, "building") {
			t.Errorf("analyze %v built a scenario before rejecting its arguments", tc.args)
		}
	}
}

// TestFigureFlagsStillRun pins that the flag-only figure mode is
// unaffected by the positional-argument check.
func TestFigureFlagsStillRun(t *testing.T) {
	if code, stderr := runAnalyze(t, "-scale", "small", "-out", "table1"); code != 0 {
		t.Fatalf("analyze -scale small -out table1 exited %d: %s", code, stderr)
	}
}
