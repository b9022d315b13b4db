package obs

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// captureConfig is a profiler config that captures instantly: CPU
// sampling is disabled (a 2s default sample would dominate test time and
// collide with any other CPU profile in the process).
func captureConfig(dir string) ProfileConfig {
	return ProfileConfig{Dir: dir, cpuDuration: -1, Interval: time.Hour, mutexFraction: -1}
}

func TestProfilerCaptureNow(t *testing.T) {
	p, err := NewProfiler(captureConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	files, err := p.CaptureNow()
	if err != nil {
		t.Fatalf("CaptureNow: %v", err)
	}
	kinds := map[string]bool{}
	for _, f := range files {
		kinds[f.Kind] = true
		if f.Bytes <= 0 {
			t.Errorf("%s profile is empty", f.Kind)
		}
	}
	for _, k := range []string{"heap", "goroutine", "mutex"} {
		if !kinds[k] {
			t.Errorf("capture round lacks %s: %v", k, kinds)
		}
	}
	if kinds["cpu"] {
		t.Error("negative cpuDuration still captured a cpu profile")
	}
	if inv := p.Inventory(); len(inv) != len(files) {
		t.Errorf("Inventory lists %d files, capture returned %d", len(inv), len(files))
	}
}

func TestProfilerEviction(t *testing.T) {
	cfg := captureConfig(t.TempDir())
	// A budget smaller than any profile: eviction must still keep the
	// newest round intact (the keep-set), removing everything older.
	cfg.maxBytes = 1
	p, err := NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.CaptureNow()
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.CaptureNow()
	if err != nil {
		t.Fatal(err)
	}
	inv := p.Inventory()
	if len(inv) != len(second) {
		t.Fatalf("ring holds %d files after eviction, want the newest round's %d", len(inv), len(second))
	}
	survivors := map[string]bool{}
	for _, f := range inv {
		survivors[f.Path] = true
	}
	for _, f := range first {
		if survivors[f.Path] {
			t.Errorf("old round's %s survived a 1-byte budget", f.Path)
		}
	}
	for _, f := range second {
		if !survivors[f.Path] {
			t.Errorf("newest round's %s was evicted", f.Path)
		}
	}
}

func TestProfilerNewest(t *testing.T) {
	p, err := NewProfiler(captureConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CaptureNow(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond) // distinct capture timestamps
	second, err := p.CaptureNow()
	if err != nil {
		t.Fatal(err)
	}
	newest := p.Newest("heap")
	if newest.Path == "" {
		t.Fatal("Newest found no heap profile")
	}
	for _, f := range second {
		if f.Kind == "heap" && f.Path != newest.Path {
			t.Errorf("Newest(heap) = %s, want the second round's %s", newest.Path, f.Path)
		}
	}
	if missing := p.Newest("cpu"); missing.Path != "" {
		t.Errorf("Newest(cpu) = %+v with CPU capture disabled", missing)
	}
}

func TestProfilerStartStop(t *testing.T) {
	p, err := NewProfiler(captureConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for len(p.Inventory()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop took no capture round")
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	p.Stop() // idempotent
}

func TestProfilerStopWithoutStart(t *testing.T) {
	p, err := NewProfiler(captureConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { p.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop without Start hung")
	}
	// Stop consumed the start-once: Start must not launch the loop now.
	p.Start()
	time.Sleep(10 * time.Millisecond)
	if inv := p.Inventory(); len(inv) != 0 {
		t.Errorf("loop ran after Stop-then-Start: %d files", len(inv))
	}
}

func TestProfilerConfigValidation(t *testing.T) {
	if _, err := NewProfiler(ProfileConfig{}); err == nil {
		t.Error("empty Dir accepted")
	}
}

// TestProfilerCPUDuration checks that a zero cpuDuration selects
// DefaultProfileCPUDuration clamped to Interval, so a config that names
// only a directory and a cadence captures a CPU profile. (A negative
// value disables CPU capture; captureConfig relies on that.)
func TestProfilerCPUDuration(t *testing.T) {
	p, err := NewProfiler(ProfileConfig{Dir: t.TempDir(), Interval: 50 * time.Millisecond, mutexFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.cpuDuration != 50*time.Millisecond {
		t.Errorf("cpuDuration = %v, want the default clamped to Interval (50ms)", p.cfg.cpuDuration)
	}
	files, err := p.CaptureNow()
	if err != nil {
		t.Fatalf("CaptureNow: %v", err)
	}
	var cpu ProfileFile
	for _, f := range files {
		if f.Kind == "cpu" {
			cpu = f
		}
	}
	if cpu.Bytes <= 0 || !strings.HasPrefix(filepath.Base(cpu.Path), "cpu-") {
		t.Errorf("default config wrote no cpu-*.pprof: %+v", files)
	}
}

func TestNilProfilerIsInert(t *testing.T) {
	var p *Profiler
	p.Start()
	p.Stop()
	if files, err := p.CaptureNow(); files != nil || err != nil {
		t.Error("nil profiler captured")
	}
	if p.Inventory() != nil || p.Newest("cpu").Path != "" {
		t.Error("nil profiler reported state")
	}
}

func TestProfileNameRoundTrip(t *testing.T) {
	now := time.Unix(0, 1700000000123456789)
	name := profileName("heap", now)
	kind, ts, ok := parseProfileName(name)
	if !ok || kind != "heap" || !ts.Equal(now) {
		t.Errorf("parseProfileName(%q) = %q, %v, %v", name, kind, ts, ok)
	}
	if _, _, ok := parseProfileName("README.md"); ok {
		t.Error("parseProfileName accepted a foreign file")
	}
}
