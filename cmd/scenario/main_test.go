package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles as the scenario command when SCENARIO_CLI is set, so
// tests can run the real main — exit status, stderr and any panic — in
// a child process.
func TestMain(m *testing.M) {
	if os.Getenv("SCENARIO_CLI") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command on a script fed through stdin.
func runCLI(t *testing.T, script string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-")
	cmd.Env = append(os.Environ(), "SCENARIO_CLI=1")
	cmd.Stdin = strings.NewReader(script)
	var errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &bytes.Buffer{}, &errBuf
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, errBuf.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), errBuf.String()
	}
	t.Fatalf("running the command: %v", err)
	return 0, ""
}

func TestSCMPConfigErrorExitsCleanly(t *testing.T) {
	for _, knobs := range []string{"mrouter=99", "mrouter=3 standby=3", "kappa=0.5"} {
		code, stderr := runCLI(t, "topology arpanet\nprotocol scmp "+knobs+"\nrun\n")
		if code == 0 {
			t.Errorf("%s: exit status 0", knobs)
		}
		if strings.Contains(stderr, "panic:") || strings.Contains(stderr, "goroutine") {
			t.Errorf("%s: crashed:\n%s", knobs, stderr)
		}
		if !strings.Contains(stderr, "scenario: line 2: core: ") {
			t.Errorf("%s: stderr %q lacks the line-numbered error", knobs, stderr)
		}
	}
}

func TestValidScriptExitsZero(t *testing.T) {
	code, stderr := runCLI(t, "topology arpanet\nprotocol scmp mrouter=0\nat 0 join 5\nrun\nexpect delivered\n")
	if code != 0 {
		t.Fatalf("exit status %d, stderr:\n%s", code, stderr)
	}
}
