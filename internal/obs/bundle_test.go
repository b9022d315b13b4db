package obs

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// populatedBundler builds a Bundler over a surface of live flight,
// tracer, series and serving sensors with some recorded content, plus
// resolved flags. Without a cfg.Logger the bundler logs into the
// surface's flight ring, as the commands wire it.
func populatedBundler(t *testing.T, cfg BundleConfig) (*Bundler, *Surface) {
	t.Helper()
	sf := &Surface{
		Flight: NewFlightRecorder(0), Tracer: NewTracer(0), Series: NewSeries(0),
		Serve: &ServeMetrics{}, Flags: map[string]string{"sig": "D8M8", "threads": "4"},
	}
	sf.Flight.Record("run", "epoch", "epoch 0 done", map[string]string{"loss": "0.5"})
	sf.Flight.Record("run", "retry", "retrying", nil)
	sf.Tracer.Begin("core", "epoch", 0).End()
	sf.Series.EpochTick(0, 0.5, 100, 0)
	sf.Series.EpochTick(1, 0.4, 200, 0)
	sf.Serve.Request(1, 42)
	if cfg.Logger == nil {
		cfg.Logger = slog.New(sf.Flight.LogHandler(nil))
	}
	b, err := NewBundler(cfg, sf)
	if err != nil {
		t.Fatal(err)
	}
	sf.Bundle = b
	return b, sf
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
	// The trigger itself is logged before the snapshot, so the bundle's
	// own flight ring shows what tripped it.
	var sawTrigger, sawEpoch bool
	for _, ev := range info.Flight.Events {
		if ev.Component == "bundle" && ev.Kind == "trigger" && ev.Fields["reason"] == "divergence" {
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

	var serveSec ServeStats
	if err := json.Unmarshal(info.Sections["stats/serve"], &serveSec); err != nil || serveSec.Requests != 1 {
		t.Errorf("stats/serve section = %+v (%v)", serveSec, err)
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
	b, sf := populatedBundler(t, BundleConfig{Dir: dir, cooldown: 50 * time.Millisecond})

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
	for _, ev := range sf.Flight.Snapshot().Events {
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
// the next bundle's manifest. Holding the profiler's lock stalls the
// first write where it looks up the newest CPU profile.
func TestBundleTriggerDuringWrite(t *testing.T) {
	dir := t.TempDir()
	b, sf := populatedBundler(t, BundleConfig{Dir: dir, cooldown: time.Nanosecond})
	prof, err := NewProfiler(ProfileConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	sf.Profiler = prof
	prof.mu.Lock()
	first := make(chan bool)
	go func() {
		_, wrote := b.Trigger("stall", "first")
		first <- wrote
	}()
	for writing := false; !writing; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		writing = b.writing
		b.mu.Unlock()
	}
	if path, wrote := b.Trigger("stall", "during"); wrote {
		t.Errorf("trigger during an in-flight write wrote %s", path)
	}
	prof.mu.Unlock()
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
	b, _ := populatedBundler(t, BundleConfig{Dir: dir, cooldown: -1})
	for i := 0; i < MaxBundles+2; i++ {
		if _, wrote := b.Trigger("stall", "x"); !wrote {
			t.Fatalf("trigger %d suppressed with debounce disabled", i)
		}
		// File ModTime comes from the kernel's coarse clock; space the
		// writes out so prune's oldest-first ordering is deterministic.
		time.Sleep(10 * time.Millisecond)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+DebugBundleSuffix))
	if len(files) != MaxBundles {
		t.Fatalf("prune kept %d bundles, want %d: %v", len(files), MaxBundles, files)
	}
	// The survivors are the newest MaxBundles (sequence numbers 3 on).
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

// hostileBundle is a gzipped tar holding a manifest and one JSON entry
// whose header declares size bytes: with fill that many zero bytes
// follow, otherwise the stream ends right after the header.
func hostileBundle(t testing.TB, name string, size int64, fill bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	if err := tw.WriteHeader(&tar.Header{Name: "manifest.json", Mode: 0o644, Size: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write([]byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: size}); err != nil {
		t.Fatal(err)
	}
	if fill {
		zeros := make([]byte, 1<<20)
		for n := int64(0); n < size; n += int64(len(zeros)) {
			if _, err := tw.Write(zeros[:min(size-n, int64(len(zeros)))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadBundleRejectsOversizedEntry: a JSON entry whose header declares
// more than the reader's cap is refused before any of it is read, whether
// its bytes are missing or really there (a gzip bomb: 65 MiB of zeros is
// about 64 KiB on the wire), and a non-JSON entry is inventoried from its
// header without being buffered.
func TestReadBundleRejectsOversizedEntry(t *testing.T) {
	for name, in := range map[string][]byte{
		"flight.json": hostileBundle(t, "flight.json", 1<<40, false),
		"series.json": hostileBundle(t, "series.json", maxBundleJSON+1<<20, true),
	} {
		_, err := ReadBundle(bytes.NewReader(in))
		if err == nil || !strings.HasPrefix(err.Error(), "obs: bundle entry "+name) || !strings.Contains(err.Error(), "limit") {
			t.Errorf("oversized %s: err = %v, want the size limit", name, err)
		}
	}

	b, _ := populatedBundler(t, BundleConfig{Dir: t.TempDir()})
	var buf bytes.Buffer
	if err := b.WriteTo(&buf, "on-demand", "", 0, 0); err != nil {
		t.Fatal(err)
	}
	info, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, e := range info.Manifest.Files {
		sizes[e.Name] = e.Bytes
	}
	for _, e := range info.Entries {
		if e.Name != "manifest.json" && e.Bytes != sizes[e.Name] {
			t.Errorf("entry %s inventoried at %d bytes, manifest says %d", e.Name, e.Bytes, sizes[e.Name])
		}
	}
}

// FuzzReadBundle: on any input ReadBundle returns an error or a parsed
// bundle, never both or neither, and never panics. The committed corpus
// (testdata/fuzz/FuzzReadBundle) holds a real WriteTo bundle, a truncated
// one, a non-gzip input, a bundle without a manifest and one whose JSON
// entry declares 1 TiB.
func FuzzReadBundle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := ReadBundle(bytes.NewReader(data))
		if (err == nil) != (info != nil) {
			t.Fatalf("ReadBundle = %v, %v", info, err)
		}
	})
}
