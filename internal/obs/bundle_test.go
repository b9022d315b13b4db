package obs

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// populatedBundler builds a Bundler over live flight/tracer/series
// sources with some recorded content, plus a stats and config section.
func populatedBundler(t *testing.T, cfg BundleConfig) (*Bundler, *FlightRecorder) {
	t.Helper()
	rec := NewFlightRecorder(0)
	rec.Record("run", "epoch", "epoch 0 done", map[string]string{"loss": "0.5"})
	rec.Record("run", "retry", "retrying", nil)
	tr := NewTracer(0)
	tr.Begin("core", "epoch", 0).End()
	se := NewSeries(0)
	se.EpochTick(0, 0.5, 100, 0)
	se.EpochTick(1, 0.4, 200, 0)
	cfg.Flight, cfg.Tracer, cfg.Series = rec, tr, se
	b, err := NewBundler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.AddSection("stats/run", func() any { return &RunStats{Steps: 42} })
	b.AddSection("config", func() any { return map[string]string{"sig": "D8M8", "threads": "4"} })
	return b, rec
}

func TestBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b, _ := populatedBundler(t, BundleConfig{Dir: dir, Prefix: "test"})

	path, wrote := b.Trigger("divergence", "epoch 3: non-finite loss")
	if !wrote {
		t.Fatal("Trigger did not write a bundle")
	}
	if !strings.HasSuffix(path, DebugBundleSuffix) {
		t.Fatalf("bundle path %q lacks suffix %q", path, DebugBundleSuffix)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, err := ReadBundle(f)
	if err != nil {
		t.Fatal(err)
	}

	m := info.Manifest
	if m.Reason != "divergence" || m.Detail != "epoch 3: non-finite loss" {
		t.Errorf("manifest trigger = %q/%q", m.Reason, m.Detail)
	}
	if m.Seq != 1 || m.Suppressed != 0 {
		t.Errorf("manifest seq/suppressed = %d/%d, want 1/0", m.Seq, m.Suppressed)
	}
	if m.Go == "" || m.PID == 0 {
		t.Errorf("manifest runtime identification missing: %+v", m)
	}

	if info.Flight == nil {
		t.Fatal("bundle has no decoded flight section")
	}
	// The trigger itself is recorded before the snapshot, so the bundle's
	// own flight ring shows what tripped it.
	var sawTrigger, sawEpoch bool
	for _, ev := range info.Flight.Events {
		if ev.Component == "bundle" && ev.Kind == "trigger" && ev.Message == "divergence" {
			sawTrigger = true
		}
		if ev.Kind == "epoch" {
			sawEpoch = true
		}
	}
	if !sawTrigger || !sawEpoch {
		t.Errorf("flight events missing trigger (%v) or epoch (%v)", sawTrigger, sawEpoch)
	}

	if info.Series == nil || len(info.Series.Windows) == 0 {
		t.Fatal("bundle has no decoded series windows")
	}
	if win := info.Series.Final(); win == nil || win.Loss != 0.4 {
		t.Errorf("final series window = %+v, want loss 0.4", win)
	}

	if _, ok := info.Sections["stats/run"]; !ok {
		t.Error("bundle lacks stats/run section")
	}
	var cfgSec map[string]string
	if err := json.Unmarshal(info.Sections["config"], &cfgSec); err != nil || cfgSec["sig"] != "D8M8" {
		t.Errorf("config section = %v (%v)", cfgSec, err)
	}

	// Instantaneous pprof kinds are always embedded; the manifest
	// inventories them with in-archive paths.
	kinds := map[string]bool{}
	for _, p := range m.Profiles {
		kinds[p.Kind] = true
		if !strings.HasPrefix(p.Path, "profiles/") {
			t.Errorf("profile path %q not rewritten to in-archive form", p.Path)
		}
	}
	for _, k := range []string{"heap", "goroutine"} {
		if !kinds[k] {
			t.Errorf("manifest profile inventory lacks %s: %v", k, kinds)
		}
	}
	var names []string
	for _, e := range info.Entries {
		names = append(names, e.Name)
	}
	for _, want := range []string{"manifest.json", "flight.json", "trace.json.gz", "series.json", "profiles/goroutines.txt"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("bundle entries %v missing %s", names, want)
		}
	}
}

// TestBundleTraceSummarizable checks the inner trace.json.gz is directly
// consumable by the trace-summary path (which sniffs gzip).
func TestBundleTraceSummarizable(t *testing.T) {
	b, _ := populatedBundler(t, BundleConfig{Dir: t.TempDir()})
	var buf bytes.Buffer
	if err := b.WriteTo(&buf, "on-demand", "", 0, 0); err != nil {
		t.Fatal(err)
	}
	raw := extractEntry(t, buf.Bytes(), "trace.json.gz")
	phases, err := SummarizeTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("gzipped bundle trace did not summarize: %v", err)
	}
	if len(phases) == 0 || phases[0].Name != "epoch" {
		t.Errorf("phases = %+v, want the recorded epoch span", phases)
	}
}

func TestBundleDebounce(t *testing.T) {
	dir := t.TempDir()
	b, rec := populatedBundler(t, BundleConfig{Dir: dir, Cooldown: 50 * time.Millisecond})

	if _, wrote := b.Trigger("stall", "first"); !wrote {
		t.Fatal("first trigger suppressed")
	}
	// Second trip inside the cooldown: counted, flight-logged, no file.
	if path, wrote := b.Trigger("stall", "second"); wrote {
		t.Fatalf("second trigger inside cooldown wrote %s", path)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+DebugBundleSuffix))
	if len(files) != 1 {
		t.Fatalf("two trips within cooldown produced %d bundles, want 1", len(files))
	}
	var suppressed bool
	for _, ev := range rec.Snapshot().Events {
		if ev.Component == "bundle" && ev.Kind == "suppressed" {
			suppressed = true
		}
	}
	if !suppressed {
		t.Error("suppressed trigger left no flight event")
	}

	// After the cooldown the next trigger writes, carrying the count.
	time.Sleep(60 * time.Millisecond)
	path, wrote := b.Trigger("stall", "third")
	if !wrote {
		t.Fatal("post-cooldown trigger suppressed")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, err := ReadBundle(f)
	if err != nil {
		t.Fatal(err)
	}
	if info.Manifest.Suppressed != 1 {
		t.Errorf("manifest.Suppressed = %d, want 1", info.Manifest.Suppressed)
	}
}

// TestBundleTriggerDuringWrite: a trigger that arrives while a bundle is
// being written is suppressed, however short the cooldown, and counted in
// the next bundle's manifest.
func TestBundleTriggerDuringWrite(t *testing.T) {
	dir := t.TempDir()
	b, _ := populatedBundler(t, BundleConfig{Dir: dir, Cooldown: time.Nanosecond})
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	b.AddSection("stats/slow", func() any {
		if calls.Add(1) == 1 { // only the first write stalls
			close(entered)
			<-release
		}
		return 1
	})
	first := make(chan bool)
	go func() {
		_, wrote := b.Trigger("stall", "first")
		first <- wrote
	}()
	<-entered
	if path, wrote := b.Trigger("stall", "during"); wrote {
		t.Errorf("trigger during an in-flight write wrote %s", path)
	}
	close(release)
	if !<-first {
		t.Fatal("first trigger suppressed")
	}
	time.Sleep(time.Millisecond)
	path, wrote := b.Trigger("stall", "after")
	if !wrote {
		t.Fatal("trigger after the write and its cooldown suppressed")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, err := ReadBundle(f)
	if err != nil {
		t.Fatal(err)
	}
	if info.Manifest.Suppressed != 1 {
		t.Errorf("manifest.Suppressed = %d, want 1", info.Manifest.Suppressed)
	}
}

func TestBundlePrune(t *testing.T) {
	dir := t.TempDir()
	b, _ := populatedBundler(t, BundleConfig{Dir: dir, MaxBundles: 2, Cooldown: -1})
	for i := 0; i < 4; i++ {
		if _, wrote := b.Trigger("stall", "x"); !wrote {
			t.Fatalf("trigger %d suppressed with debounce disabled", i)
		}
		// File ModTime comes from the kernel's coarse clock; space the
		// writes out so prune's oldest-first ordering is deterministic.
		time.Sleep(10 * time.Millisecond)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+DebugBundleSuffix))
	if len(files) != 2 {
		t.Fatalf("prune kept %d bundles, want 2: %v", len(files), files)
	}
	// The survivors are the newest two (sequence numbers 3 and 4).
	for _, f := range files {
		if strings.Contains(f, "-001"+DebugBundleSuffix) || strings.Contains(f, "-002"+DebugBundleSuffix) {
			t.Errorf("prune kept old bundle %s", f)
		}
	}
}

func TestNilBundlerIsInert(t *testing.T) {
	var b *Bundler
	if path, wrote := b.Trigger("stall", "x"); wrote || path != "" {
		t.Error("nil bundler wrote a bundle")
	}
	b.AddSection("x", func() any { return nil })
}

func TestReadBundleRejectsGarbage(t *testing.T) {
	if _, err := ReadBundle(strings.NewReader("not a bundle")); err == nil {
		t.Error("ReadBundle accepted non-gzip input")
	}
}

// extractEntry walks a bundle archive and returns the named entry's raw
// bytes (ReadBundle only retains JSON sections).
func extractEntry(t *testing.T, bundle []byte, name string) []byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Name == name {
			data, err := io.ReadAll(tr)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
	}
	t.Fatalf("bundle has no entry %s", name)
	return nil
}

// TestWatchdogTripWritesBundle checks the divergence watchdog's
// bundle hookup: one trip produces exactly one bundle whose manifest
// names the trip, and the trip-once guard means later bad epochs add
// nothing.
func TestWatchdogTripWritesBundle(t *testing.T) {
	dir := t.TempDir()
	b, _ := populatedBundler(t, BundleConfig{Dir: dir})
	ctx, cancel := context.WithCancelCause(context.Background())
	wd := &HealthWatchdog{Cancel: cancel, Bundle: b}

	wd.OnEpoch(EpochInfo{Epoch: 1, Loss: 0.5})
	if files, _ := filepath.Glob(filepath.Join(dir, "*"+DebugBundleSuffix)); len(files) != 0 {
		t.Fatal("healthy epoch produced a bundle")
	}
	wd.OnEpoch(EpochInfo{Epoch: 2, Loss: math.NaN()})
	if ctx.Err() == nil {
		t.Fatal("watchdog did not cancel")
	}
	wd.OnEpoch(EpochInfo{Epoch: 3, Loss: math.NaN()}) // trip-once: no second bundle

	files, _ := filepath.Glob(filepath.Join(dir, "*"+DebugBundleSuffix))
	if len(files) != 1 {
		t.Fatalf("divergence produced %d bundles, want exactly 1: %v", len(files), files)
	}
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, err := ReadBundle(f)
	if err != nil {
		t.Fatal(err)
	}
	if info.Manifest.Reason != "divergence" || !strings.Contains(info.Manifest.Detail, "epoch 2") {
		t.Errorf("manifest = %q/%q, want divergence at epoch 2",
			info.Manifest.Reason, info.Manifest.Detail)
	}
}
