package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"buckwild/internal/dmgc"
)

// runMainEnv marks a re-executed test binary that should act as the dmgc
// command instead of running tests.
const runMainEnv = "DMGC_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCmd runs the command with args and returns its stdout, stderr and
// exit code.
func runCmd(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = &errBuf
	err = cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return outBuf.String(), errBuf.String(), cmd.ProcessState.ExitCode()
}

func TestOutputPinned(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"classify", "D8i16M8"}, `signature      D8i16M8
dataset        8 bits (fixed point)
index          16 bits (sparse problem)
model          8 bits (fixed point)
gradients      equivalent to full precision (G omitted)
communication  implicit via cache coherence (Hogwild!-style, asynchronous)
bytes/element  3.00 (dataset stream)
`},
		{[]string{"classify", "D32fM32fC8s"}, `signature      D32fM32fC8s
dataset        32 bits (floating point)
index          (dense problem)
model          32 bits (floating point)
gradients      equivalent to full precision (G omitted)
communication  explicit, 8 bits, synchronous
bytes/element  4.00 (dataset stream)
`},
		{[]string{"predict", "D8M8", "-n", "4096", "-threads", "1"},
			"D8M8 at n=4096, 1 threads: 3.339 GNPS (communication-bound, p=0.317)\n"},
		{[]string{"stat", "D8M8", "-n", "1024", "-threads", "2", "-eta", "0.01"}, `D8M8, n=1024, eta=0.01, 2 threads:
  per-step contraction    0.001800 (rate 0.998200)
  noise ball (E|w-w*|^2)  1.445
    gradient variance     0.0555556
    quantization          1.38889
    asynchrony            0.000555556
  steps to ball from r0^2=1: 0
  max stable step at 2 threads: 0.1
`},
	} {
		stdout, stderr, code := runCmd(t, c.args...)
		if code != 0 || stdout != c.want {
			t.Errorf("dmgc %s: exit %d, stderr %q, stdout:\n%s\nwant:\n%s", strings.Join(c.args, " "), code, stderr, stdout, c.want)
		}
	}
}

func TestTable1OneLinePerRow(t *testing.T) {
	stdout, stderr, code := runCmd(t, "table1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	rows := dmgc.Table1()
	if len(lines) != len(rows) {
		t.Fatalf("%d lines for %d Table 1 rows:\n%s", len(lines), len(rows), stdout)
	}
	for i, r := range rows {
		if !strings.HasPrefix(lines[i], r.Paper) || !strings.Contains(lines[i], r.Signature.String()) {
			t.Errorf("line %d = %q, want paper %q and signature %q", i, lines[i], r.Paper, r.Signature)
		}
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}} {
		stdout, stderr, code := runCmd(t, args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "usage:\n  dmgc classify") {
			t.Errorf("dmgc %v: exit %d, stdout %q, stderr %q; want exit 2 and the usage text", args, code, stdout, stderr)
		}
	}
}

// TestErrorsPrefixedOnce checks that a failing subcommand exits 1 with the
// command's "dmgc: " prefix once, not once more from the package error.
func TestErrorsPrefixedOnce(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"classify", "D9Q"}, `dmgc: "D9Q": expected bit width at offset 3` + "\n"},
		{[]string{"simulate", "D9Q"}, `dmgc: "D9Q": expected bit width at offset 3` + "\n"},
		{[]string{"predict", "D8M8", "-n", "0"}, "dmgc: model size 0 < 1\n"},
		{[]string{"stat", "D8M8", "-eta", "5"}, "dmgc: step size 5 too large for stability at 18 threads (contraction -449)\n"},
	} {
		stdout, stderr, code := runCmd(t, c.args...)
		if code != 1 || stdout != "" || stderr != c.want {
			t.Errorf("dmgc %s: exit %d, stdout %q, stderr %q; want exit 1 and %q", strings.Join(c.args, " "), code, stdout, stderr, c.want)
		}
	}
}
