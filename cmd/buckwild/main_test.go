package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"buckwild/internal/obs"
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

// lockedBuffer is an output buffer the command's copier goroutine
// writes while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startCmd starts the command with args in dir and returns it with the
// first http://host:port address it prints on stdout, and its stdout and
// stderr so far.
func startCmd(t *testing.T, dir string, args ...string) (cmd *exec.Cmd, addr string, stdout, stderr *lockedBuffer) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stdout, stderr = &lockedBuffer{}, &lockedBuffer{}
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if m := addrRE.FindStringSubmatch(stdout.String()); m != nil {
			return cmd, m[1], stdout, stderr
		}
		if time.Now().After(deadline) {
			t.Fatalf("no address printed; stderr:\n%s", stderr.String())
		}
	}
}

var addrRE = regexp.MustCompile(`http://([0-9.]+:[0-9]+)`)

// waitExit waits for cmd and returns its exit code.
func waitExit(t *testing.T, cmd *exec.Cmd, stderr *lockedBuffer) int {
	t.Helper()
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("command did not exit; stderr:\n%s", stderr.String())
	}
	return cmd.ProcessState.ExitCode()
}

// checkDebugRoutes checks every debug route one surface mounts, and
// whether pprof answers on the same port.
func checkDebugRoutes(t *testing.T, base string, pprof bool) {
	t.Helper()
	for _, c := range []struct{ path, ctype string }{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/debug/flight", "application/json"},
		{"/debug/dash", "text/html; charset=utf-8"},
		{"/debug/bundle", "application/gzip"},
	} {
		resp, err := http.Get(base + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != c.ctype {
			t.Errorf("GET %s = %d %q, want 200 %q", c.path, resp.StatusCode, resp.Header.Get("Content-Type"), c.ctype)
			continue
		}
		switch c.path {
		case "/metrics":
			if !strings.Contains(string(body), "buckwild_epochs_completed") {
				t.Errorf("/metrics lacks the training gauges:\n%s", body)
			}
		case "/debug/bundle":
			if _, err := obs.ReadBundle(bytes.NewReader(body)); err != nil {
				t.Errorf("/debug/bundle: %v", err)
			}
		}
	}

	resp, err := http.Get(base + "/debug/dash/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
		t.Errorf("GET /debug/dash/events = %d %q", resp.StatusCode, ct)
	}
	r := bufio.NewReader(resp.Body)
	ev, err := r.ReadString('\n')
	if err == nil && ev == "event: snapshot\n" {
		var data string
		if data, err = r.ReadString('\n'); err == nil && !json.Valid([]byte(strings.TrimPrefix(data, "data: "))) {
			t.Errorf("first SSE data line is not JSON: %q", data)
		}
	} else {
		t.Errorf("first SSE line %q (%v)", ev, err)
	}
	resp.Body.Close()

	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if want := map[bool]int{true: http.StatusOK, false: http.StatusNotFound}[pprof]; resp.StatusCode != want {
		t.Errorf("GET /debug/pprof/ = %d, want %d", resp.StatusCode, want)
	}
}

// TestHTTPDebugRoutes runs a live training run with -http and checks
// its debug routes, pprof included. An injected stall holds the run open
// until SIGINT, which exits 130.
func TestHTTPDebugRoutes(t *testing.T) {
	dir := t.TempDir()
	cmd, addr, _, stderr := startCmd(t, dir, "-n", "64", "-m", "200", "-epochs", "4",
		"-http", "127.0.0.1:0", "-checkpoint-dir", "ckpt", "-fault", "stall@step=300", "-stall-timeout", "1h")
	checkDebugRoutes(t, "http://"+addr, true)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if code := waitExit(t, cmd, stderr); code != 130 {
		t.Errorf("exit %d after SIGINT, want 130; stderr:\n%s", code, stderr.String())
	}
}

// TestServeRoutes runs buckwild serve: /healthz answers once the first
// checkpoint is promoted, every debug route answers on the serving port
// but pprof does not, and SIGTERM drains to exit 0.
func TestServeRoutes(t *testing.T) {
	dir := t.TempDir()
	cmd, addr, _, stderr := startCmd(t, dir, "serve", "-addr", "127.0.0.1:0",
		"-n", "64", "-m", "200", "-epochs", "1", "-rounds", "1", "-checkpoint-dir", "ckpt", "-log-level", "warn")
	base := "http://" + addr
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("/healthz: %v, content type %q", err, resp.Header.Get("Content-Type"))
		}
		if resp.StatusCode == http.StatusOK && h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz still %d %q; stderr:\n%s", resp.StatusCode, h.Status, stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	checkDebugRoutes(t, base, false)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := waitExit(t, cmd, stderr); code != 0 {
		t.Errorf("exit %d after SIGTERM, want 0; stderr:\n%s", code, stderr.String())
	}
}

// divergingRun is a seeded 4-bit model with an oversized step: its
// updates saturate the format on most writes, so the health watchdog
// trips at the first epoch boundary.
var divergingRun = []string{"-sig", "D8M4", "-n", "32", "-m", "400", "-step", "2"}

// TestHealthWatchDivergence runs the diverging model under -health-watch:
// the run stops with the divergence error and writes one debug bundle.
func TestHealthWatchDivergence(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{"-epochs", "8", "-seed", "7", "-health-watch", "-bundle-dir", dir}, divergingRun...)
	stderr, code := runCmd(t, dir, args...)
	if code != 1 || !strings.Contains(stderr, "numerical divergence at epoch 1") {
		t.Fatalf("exit %d, stderr:\n%s\nwant exit 1 and the epoch-1 divergence", code, stderr)
	}
	bundles, _ := filepath.Glob(filepath.Join(dir, "buckwild-divergence-*"+obs.DebugBundleSuffix))
	if len(bundles) != 1 {
		t.Errorf("%d divergence bundles, want 1: %v", len(bundles), bundles)
	}
}

// TestServeRefusesDivergedPromotion runs buckwild serve on the diverging
// model: the watchdog gates promotion, so the epoch-1 checkpoint is
// refused, /metrics shows the divergence, /healthz stays 503 with no
// model to serve, and SIGTERM still drains to exit 0.
func TestServeRefusesDivergedPromotion(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-epochs", "2", "-rounds", "1",
		"-bundle-dir", dir, "-log-level", "warn"}, divergingRun...)
	cmd, addr, stdout, stderr := startCmd(t, dir, args...)
	base := "http://" + addr
	want := []string{"buckwild_diverged 1", "buckwild_diverged_epoch 1", "buckwild_serve_promotions_refused_total 1"}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		missing := ""
		for _, w := range want {
			if !strings.Contains(string(body), w+"\n") {
				missing = w
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never showed %q; stderr:\n%s", missing, stderr.String())
		}
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz %d after a refused promotion, want 503", resp.StatusCode)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := waitExit(t, cmd, stderr); code != 0 {
		t.Errorf("exit %d after SIGTERM, want 0; stderr:\n%s", code, stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, "0 promotions (1 refused)") {
		t.Errorf("summary does not read \"0 promotions (1 refused)\":\n%s", out)
	}
}

// flightScenarios are failing supervised runs whose -flight dumps the
// event tests read, each with the (component, kind) pairs of its
// transitions in order. A run with two crashes and one retry exhausts
// its retries; a two-worker run with three stalls degrades to one
// worker on the second and exhausts its retries on the third. Every
// stall lands in the first epoch, so no attempt writes a checkpoint.
var flightScenarios = []struct {
	name string
	args []string
	want []string
}{
	{"crash", []string{"-checkpoint-dir", "ck", "-fault", "crash@step=1500,crash@step=3000",
		"-retries", "1", "-epochs", "3", "-flight", "fl.json"},
		[]string{"run/retry", "run/retries-exhausted", "bundle/trigger", "bundle/written"}},
	{"stall", []string{"-threads", "2", "-checkpoint-dir", "ck",
		"-fault", "stall@step=1500,stall@step=1500,stall@step=1500", "-stall-timeout", "500ms",
		"-retries", "2", "-epochs", "3", "-flight", "fl.json"},
		[]string{"bundle/trigger", "bundle/written", "run/retry", "bundle/suppressed", "run/degrade",
			"run/retry", "bundle/suppressed", "run/retries-exhausted", "bundle/suppressed"}},
}

// flightDumpEvents runs a failing command and returns its -flight dump's
// events as component/kind pairs, with and without the "log" ones.
func flightDumpEvents(t *testing.T, args []string) (all, events []string) {
	t.Helper()
	dir := t.TempDir()
	stderr, code := runCmd(t, dir, args...)
	if code == 0 {
		t.Fatalf("exit 0, want a failed run; stderr:\n%s", stderr)
	}
	buf, err := os.ReadFile(filepath.Join(dir, "fl.json"))
	if err != nil {
		t.Fatalf("%v; stderr:\n%s", err, stderr)
	}
	var snap obs.FlightSnapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatal(err)
	}
	for _, ev := range snap.Events {
		pair := ev.Component + "/" + ev.Kind
		all = append(all, pair)
		if ev.Kind != "log" {
			events = append(events, pair)
		}
	}
	return all, events
}

// TestFlightEventsPinned pins the ordered transitions a failed
// supervised run leaves in its flight dump.
func TestFlightEventsPinned(t *testing.T) {
	for _, sc := range flightScenarios {
		_, events := flightDumpEvents(t, sc.args)
		if strings.Join(events, " ") != strings.Join(sc.want, " ") {
			t.Errorf("%s: flight events\n  %v\nwant\n  %v", sc.name, events, sc.want)
		}
	}
}

// TestFlightEventsOnce checks that each transition lands in the flight
// dump exactly once: no second "log" copy of a logged event.
func TestFlightEventsOnce(t *testing.T) {
	for _, sc := range flightScenarios {
		all, _ := flightDumpEvents(t, sc.args)
		if strings.Join(all, " ") != strings.Join(sc.want, " ") {
			t.Errorf("%s: flight dump holds\n  %v\nwant each transition once\n  %v", sc.name, all, sc.want)
		}
	}
}
