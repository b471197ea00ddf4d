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

// TestSCMPConfigErrorExitsCleanly: protocol settings the constructors
// would panic on (SCMP's config rules, CBT's core range) end the command
// with a line-numbered error, not a stack trace.
func TestSCMPConfigErrorExitsCleanly(t *testing.T) {
	for _, tc := range []struct{ protocol, want string }{
		{"scmp mrouter=99", "scenario: line 2: core: "},
		{"scmp mrouter=3 standby=3", "scenario: line 2: core: "},
		{"scmp kappa=0.5", "scenario: line 2: core: "},
		{"cbt core=99", "scenario: line 2: cbt: core 99 out of range"},
		{"cbt core=-1", "scenario: line 2: cbt: core -1 out of range"},
	} {
		code, stderr := runCLI(t, "topology arpanet\nprotocol "+tc.protocol+"\nrun\n")
		if code == 0 {
			t.Errorf("%s: exit status 0", tc.protocol)
		}
		if strings.Contains(stderr, "panic:") || strings.Contains(stderr, "goroutine") {
			t.Errorf("%s: crashed:\n%s", tc.protocol, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: stderr %q lacks %q", tc.protocol, stderr, tc.want)
		}
	}
}

func TestValidScriptExitsZero(t *testing.T) {
	code, stderr := runCLI(t, "topology arpanet\nprotocol scmp mrouter=0\nat 0 join 5\nrun\nexpect delivered\n")
	if code != 0 {
		t.Fatalf("exit status %d, stderr:\n%s", code, stderr)
	}
}
