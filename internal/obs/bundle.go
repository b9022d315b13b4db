package obs

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file holds the anomaly-triggered debug bundle: one tar.gz that
// captures everything the obs stack knows at the moment something goes
// wrong — flight-ring snapshot, last trace window, windowed series,
// current pprof profiles, stats JSON, resolved config — so the operator
// triages from the artifact instead of re-running with the right flags.
//
// Triggers are debounced: an anomaly storm (a diverging run trips the
// watchdog, then stalls, then exhausts retries) produces one bundle per
// cooldown window, with the suppressed trigger count recorded in the
// next bundle's manifest. A nil *Bundler is fully inert.

// DebugBundleSuffix is the file-name suffix of every bundle the Bundler
// writes; CI globs for it when collecting failure artifacts.
const DebugBundleSuffix = ".debugbundle.tar.gz"

const (
	// DefaultBundleCooldown is the trigger debounce window.
	DefaultBundleCooldown = time.Minute
	// MaxBundles is how many of a Bundler's bundles stay on disk; the
	// oldest are pruned after each write.
	MaxBundles = 8
)

// BundleConfig configures a Bundler. What a bundle holds comes from the
// Surface the Bundler reads (see NewBundler).
type BundleConfig struct {
	// Dir is where bundles are written (default "."), created if missing.
	Dir string
	// Prefix names the bundle files: <Prefix>-<reason>-<seq> + suffix
	// (default "buckwild").
	Prefix string

	// Logger, when non-nil, gets the bundler's events, scoped to
	// component "bundle": an Info line per trigger, suppressed trigger
	// and bundle written, and a Warn on write failure. They reach a
	// flight ring rec when the logger's handler is rec.LogHandler(h).
	Logger *slog.Logger

	// cooldown debounces triggers: a trigger within cooldown of the end
	// of the last bundle write, or while a write is in flight, is
	// counted, flight-logged, and dropped (zero means
	// DefaultBundleCooldown; negative disables debouncing). Tests
	// shorten it.
	cooldown time.Duration
}

func (c *BundleConfig) fill() {
	if c.Dir == "" {
		c.Dir = "."
	}
	if c.Prefix == "" {
		c.Prefix = "buckwild"
	}
	if c.cooldown == 0 {
		c.cooldown = DefaultBundleCooldown
	}
	c.Logger = Component(c.Logger, "bundle")
}

// BundleEntry is one file inside a bundle, as listed by the manifest.
type BundleEntry struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

// BundleManifest is the bundle's self-description, stored first in the
// archive as manifest.json so bundle-summary can stream it.
type BundleManifest struct {
	// Reason is the trigger class ("divergence", "stall",
	// "retries-exhausted", "slow-request", "on-demand"); Detail the
	// trigger's one-line specifics.
	Reason string    `json:"reason"`
	Detail string    `json:"detail,omitempty"`
	Time   time.Time `json:"time"`
	// Seq counts bundles written by this process; Suppressed counts
	// triggers the cooldown swallowed since the previous bundle.
	Seq        uint64 `json:"seq"`
	Suppressed uint64 `json:"suppressed,omitempty"`

	// Build/host identification.
	Go       string `json:"go"`
	OS       string `json:"os"`
	Arch     string `json:"arch"`
	NumCPU   int    `json:"num_cpu"`
	PID      int    `json:"pid"`
	Hostname string `json:"hostname,omitempty"`

	// Files inventories the archive (manifest excluded); Profiles the
	// pprof profiles under profiles/, with Path rewritten to the
	// in-archive name.
	Files    []BundleEntry `json:"files"`
	Profiles []ProfileFile `json:"profiles,omitempty"`
}

// Bundler writes anomaly-triggered debug bundles. All methods are safe
// for concurrent use and safe on a nil receiver (no-ops).
type Bundler struct {
	cfg BundleConfig
	src *Surface

	mu sync.Mutex
	// last is when the previous bundle write finished; writing is set
	// while one is in flight.
	last       time.Time
	writing    bool
	seq        uint64
	suppressed uint64
}

// NewBundler returns a Bundler writing bundles of src's sensors into
// cfg.Dir, creating it if missing. Its events reach src.Flight through
// cfg.Logger when the logger's handler is src.Flight.LogHandler(h). A
// nil src bundles only the process's profiles. The caller usually stores
// the result in src.Bundle.
func NewBundler(cfg BundleConfig, src *Surface) (*Bundler, error) {
	cfg.fill()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: bundler: %w", err)
	}
	if src == nil {
		src = &Surface{}
	}
	return &Bundler{cfg: cfg, src: src}, nil
}

// Trigger requests a bundle for an anomaly. While a bundle is being
// written, or inside the cooldown window after the previous write
// finished, the trigger is counted and dropped (wrote is false);
// otherwise a bundle is written and its path returned. Errors
// are logged and swallowed — an anomaly handler must never die because
// evidence collection did. Nil-safe.
func (b *Bundler) Trigger(reason, detail string) (path string, wrote bool) {
	if b == nil {
		return "", false
	}
	b.mu.Lock()
	if b.cfg.cooldown > 0 && (b.writing || !b.last.IsZero() && time.Since(b.last) < b.cfg.cooldown) {
		b.suppressed++
		n := b.suppressed
		b.mu.Unlock()
		if b.cfg.Logger != nil {
			b.cfg.Logger.Info("debug bundle suppressed", slog.String("event", "suppressed"),
				slog.String("reason", reason), slog.String("detail", detail), slog.Uint64("suppressed", n))
		}
		return "", false
	}
	b.writing = true
	b.seq++
	seq := b.seq
	supp := b.suppressed
	b.suppressed = 0
	b.mu.Unlock()

	// Log the trigger before snapshotting the flight ring so the
	// bundle's own flight.json shows what tripped it.
	if b.cfg.Logger != nil {
		b.cfg.Logger.Info("debug bundle triggered", slog.String("event", "trigger"),
			slog.String("reason", reason), slog.String("detail", detail))
	}

	name := fmt.Sprintf("%s-%s-%03d%s", b.cfg.Prefix, sanitizeReason(reason), seq, DebugBundleSuffix)
	path = filepath.Join(b.cfg.Dir, name)
	err := b.writeFile(path, reason, detail, seq, supp)
	b.mu.Lock()
	b.last, b.writing = time.Now(), false
	b.mu.Unlock()
	if err != nil {
		if b.cfg.Logger != nil {
			b.cfg.Logger.Warn("debug bundle write failed", slog.String("event", "error"),
				slog.String("reason", reason), slog.String("error", err.Error()))
		}
		return "", false
	}
	if b.cfg.Logger != nil {
		b.cfg.Logger.Info("debug bundle written", slog.String("event", "written"),
			slog.String("reason", reason), slog.String("path", path))
	}
	b.prune()
	return path, true
}

func sanitizeReason(reason string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, reason)
}

func (b *Bundler) writeFile(path, reason, detail string, seq, suppressed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.WriteTo(f, reason, detail, seq, suppressed); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// WriteTo streams one complete bundle to w. Exposed so the /debug/bundle
// endpoint can serve an on-demand bundle without touching disk. Sections
// that fail to serialize are skipped, not fatal: a bundle with most of
// the evidence beats no bundle.
func (b *Bundler) WriteTo(w io.Writer, reason, detail string, seq, suppressed uint64) error {
	if b == nil {
		return errors.New("obs: nil bundler")
	}
	now := time.Now()

	// Build every section in memory first so the manifest (written as the
	// archive's first entry) can inventory names and sizes.
	type blob struct {
		name string
		data []byte
	}
	var blobs []blob
	add := func(name string, data []byte, err error) {
		if err != nil || len(data) == 0 {
			return
		}
		blobs = append(blobs, blob{name, data})
	}

	addJSON := func(name string, v any) {
		data, err := json.MarshalIndent(v, "", "  ")
		add(name, data, err)
	}

	src := b.src
	if src.Flight != nil {
		var buf bytes.Buffer
		err := src.Flight.WriteJSON(&buf)
		add("flight.json", buf.Bytes(), err)
	}
	if src.Tracer != nil {
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		err := src.Tracer.WriteTrace(gz)
		if cerr := gz.Close(); err == nil {
			err = cerr
		}
		add("trace.json.gz", buf.Bytes(), err)
	}
	if sn := src.Series.Snapshot(); sn != nil {
		addJSON("series.json", sn)
	}
	if st := src.Serve.Snapshot(); st != nil {
		addJSON("stats/serve.json", st)
	}
	if src.Flags != nil {
		addJSON("config.json", src.Flags)
	}
	if st := src.Cluster.Snapshot(); st != nil {
		addJSON("stats/cluster.json", st)
	}

	// Current pprof profiles: the instantaneous kinds captured inline
	// (no Profiler required), plus a human-readable goroutine dump, plus
	// the newest CPU profile from the ring when a Profiler is attached —
	// a fresh CPU capture would block the trigger path for seconds.
	var profiles []ProfileFile
	for _, kind := range []string{"heap", "goroutine", "mutex"} {
		prof := pprof.Lookup(kind)
		if prof == nil {
			continue
		}
		var buf bytes.Buffer
		if err := prof.WriteTo(&buf, 0); err != nil {
			continue
		}
		name := "profiles/" + kind + ".pprof"
		blobs = append(blobs, blob{name, buf.Bytes()})
		profiles = append(profiles, ProfileFile{Kind: kind, Path: name, Bytes: int64(buf.Len()), Time: now})
	}
	if prof := pprof.Lookup("goroutine"); prof != nil {
		var buf bytes.Buffer
		if err := prof.WriteTo(&buf, 2); err == nil {
			blobs = append(blobs, blob{"profiles/goroutines.txt", buf.Bytes()})
		}
	}
	if cpu := src.Profiler.Newest("cpu"); cpu.Path != "" {
		if data, err := os.ReadFile(cpu.Path); err == nil {
			name := "profiles/cpu.pprof"
			blobs = append(blobs, blob{name, data})
			profiles = append(profiles, ProfileFile{Kind: "cpu", Path: name, Bytes: int64(len(data)), Time: cpu.Time})
		}
	}

	host, _ := os.Hostname()
	man := BundleManifest{
		Reason: reason, Detail: detail, Time: now,
		Seq: seq, Suppressed: suppressed,
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), PID: os.Getpid(), Hostname: host,
		Profiles: profiles,
	}
	for _, bl := range blobs {
		man.Files = append(man.Files, BundleEntry{Name: bl.name, Bytes: int64(len(bl.data))})
	}
	manData, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: bundle manifest: %w", err)
	}

	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	writeEntry := func(name string, data []byte) error {
		hdr := &tar.Header{Name: name, Mode: 0o644, Size: int64(len(data)), ModTime: now}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}
	if err := writeEntry("manifest.json", manData); err != nil {
		return fmt.Errorf("obs: bundle: %w", err)
	}
	for _, bl := range blobs {
		if err := writeEntry(bl.name, bl.data); err != nil {
			return fmt.Errorf("obs: bundle %s: %w", bl.name, err)
		}
	}
	if err := tw.Close(); err != nil {
		return fmt.Errorf("obs: bundle: %w", err)
	}
	if err := gz.Close(); err != nil {
		return fmt.Errorf("obs: bundle: %w", err)
	}
	return nil
}

// prune removes this Bundler's oldest bundles past MaxBundles.
func (b *Bundler) prune() {
	pattern := filepath.Join(b.cfg.Dir, b.cfg.Prefix+"-*"+DebugBundleSuffix)
	matches, err := filepath.Glob(pattern)
	if err != nil || len(matches) <= MaxBundles {
		return
	}
	type aged struct {
		path string
		mod  time.Time
	}
	var files []aged
	for _, m := range matches {
		st, err := os.Stat(m)
		if err != nil {
			continue
		}
		files = append(files, aged{m, st.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for i := 0; i < len(files)-MaxBundles; i++ {
		os.Remove(files[i].path)
	}
}

// serveHTTP writes an on-demand bundle as the response body, so
// GET /debug/bundle downloads the full evidentiary record of a live
// process. On-demand bundles bypass the debounce and do not count
// against it. A nil Bundler answers 404.
func (b *Bundler) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if b == nil {
		http.Error(w, "bundling not enabled", http.StatusNotFound)
		return
	}
	name := fmt.Sprintf("%s-on-demand%s", b.cfg.Prefix, DebugBundleSuffix)
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition", `attachment; filename="`+name+`"`)
	if err := b.WriteTo(w, "on-demand", r.RemoteAddr, 0, 0); err != nil && b.cfg.Logger != nil {
		b.cfg.Logger.Warn("on-demand bundle failed", slog.String("error", err.Error()))
	}
}

// BundleInfo is a parsed debug bundle: the manifest plus the decoded
// flight and series sections and the raw bytes of every other entry.
type BundleInfo struct {
	Manifest BundleManifest
	Flight   *FlightSnapshot
	Series   *SeriesSnapshot
	// Sections maps the remaining .json entries (stats/run, config, ...)
	// to their raw JSON.
	Sections map[string]json.RawMessage
	// Entries lists every archive member in order.
	Entries []BundleEntry
}

// maxBundleJSON caps the bytes a bundle's JSON entries may declare
// between them. It is far above anything Bundler writes (a full flight
// ring is a few hundred KiB) and bounds what ReadBundle buffers from a
// hostile file.
const maxBundleJSON = 64 << 20

// ReadBundle parses a debug bundle stream (tar.gz as written by
// Bundler.WriteTo). Only JSON entries are read into memory; every other
// entry (profiles, the gzipped trace) is inventoried from its tar header
// and skipped, and unknown JSON entries are kept raw, so newer bundles
// stay readable by older readers.
func ReadBundle(r io.Reader) (*BundleInfo, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("obs: bundle is not gzip: %w", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	info := &BundleInfo{Sections: make(map[string]json.RawMessage)}
	sawManifest := false
	var jsonBytes int64
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("obs: bundle is truncated or corrupt: %w", err)
		}
		if !strings.HasSuffix(hdr.Name, ".json") {
			info.Entries = append(info.Entries, BundleEntry{Name: hdr.Name, Bytes: hdr.Size})
			continue
		}
		if jsonBytes += hdr.Size; hdr.Size > maxBundleJSON || jsonBytes > maxBundleJSON {
			return nil, fmt.Errorf("obs: bundle entry %s: %d bytes takes the JSON entries past the %d-byte limit",
				hdr.Name, hdr.Size, maxBundleJSON)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			return nil, fmt.Errorf("obs: bundle entry %s: %w", hdr.Name, err)
		}
		info.Entries = append(info.Entries, BundleEntry{Name: hdr.Name, Bytes: int64(len(data))})
		switch {
		case hdr.Name == "manifest.json":
			if err := json.Unmarshal(data, &info.Manifest); err != nil {
				return nil, fmt.Errorf("obs: bundle manifest: %w", err)
			}
			sawManifest = true
		case hdr.Name == "flight.json":
			var snap FlightSnapshot
			if err := json.Unmarshal(data, &snap); err == nil {
				info.Flight = &snap
			}
		case hdr.Name == "series.json":
			var snap SeriesSnapshot
			if err := json.Unmarshal(data, &snap); err == nil {
				info.Series = &snap
			}
		default:
			info.Sections[strings.TrimSuffix(hdr.Name, ".json")] = json.RawMessage(data)
		}
	}
	if !sawManifest {
		return nil, errors.New("obs: not a debug bundle: no manifest.json")
	}
	return info, nil
}
