package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv marks a re-executed test binary that should act as the
// buckwild command instead of running tests.
const runMainEnv = "BUCKWILD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCmd runs the command with args in dir and returns its stderr and
// exit code.
func runCmd(t *testing.T, dir string, args ...string) (stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	err = cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return errBuf.String(), cmd.ProcessState.ExitCode()
}

func TestDenseRunReport(t *testing.T) {
	dir := t.TempDir()
	stderr, code := runCmd(t, dir, "-n", "64", "-m", "200", "-epochs", "1", "-report", "r.json")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	buf, err := os.ReadFile(filepath.Join(dir, "r.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Signature string    `json:"signature"`
		TrainLoss []float64 `json:"train_loss"`
		Stats     *struct {
			Steps uint64 `json:"steps"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Signature != "D8M8" || len(rep.TrainLoss) != 2 || rep.Stats == nil || rep.Stats.Steps == 0 {
		t.Errorf("report = %s", buf)
	}
}

func TestFlagErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-rounding", "bogus"}, `unknown rounding "bogus"`},
		{[]string{"-checkpoint-dir", "ckpt", "-nodes", "2"}, "-checkpoint-dir does not support cluster runs"},
	} {
		stderr, code := runCmd(t, t.TempDir(), c.args...)
		if code == 0 || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stderr %q, want non-zero with %q", c.args, code, stderr, c.want)
		}
	}
}
