package obs

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file holds the continuous profiler: a background loop that
// captures CPU, heap, mutex and goroutine pprof profiles on a fixed
// cadence into a bounded on-disk ring, so the profile covering the
// minutes before an anomaly already exists when the anomaly fires —
// no "re-run with -cpuprofile" round trip. The ring is budgeted in
// bytes: after every capture the oldest files are evicted until the
// directory fits the budget again, so a long-lived daemon profiles
// forever in constant disk.
//
// CaptureNow takes one capture round on demand (the debug-bundle writer
// uses it so a bundle always embeds fresh profiles), sharing a mutex
// with the background loop so captures never overlap — in particular,
// two CPU profiles can never be started at once, which the runtime
// forbids process-wide.
//
// A nil *Profiler is fully inert, the package's zero-cost convention.

// Default ProfileConfig values.
const (
	// DefaultProfileInterval is the background capture cadence.
	DefaultProfileInterval = 30 * time.Second
	// DefaultProfileCPUDuration is how long each CPU profile samples.
	DefaultProfileCPUDuration = 2 * time.Second
	// DefaultProfileMaxBytes is the on-disk ring budget.
	DefaultProfileMaxBytes = 64 << 20
	// DefaultMutexFraction is the runtime mutex-profile sampling rate the
	// profiler installs while running (1/16 of contention events).
	DefaultMutexFraction = 16
)

// ProfileConfig configures a Profiler. Only Dir is required.
type ProfileConfig struct {
	// Dir is the profile ring directory; created if missing.
	Dir string
	// Interval is the background capture cadence (default 30s). The
	// loop sleeps Interval between capture rounds, so the effective
	// period is Interval plus the CPU sample.
	Interval time.Duration
	// Logger, when non-nil, receives capture failures (Warn) and
	// eviction decisions (Debug). Nil is silent.
	Logger *slog.Logger

	// The unexported fields are test seams; zero selects the matching
	// Default constant.
	//
	// cpuDuration is how long each round's CPU profile samples, clamped
	// to Interval. Negative disables CPU capture entirely, as when the
	// process already runs its own CPU profile, which the runtime only
	// allows one of.
	cpuDuration time.Duration
	// maxBytes bounds the ring's total on-disk size. Files from the
	// newest capture round are never evicted, so a budget smaller than
	// one round degrades to keeping exactly the newest round.
	maxBytes int64
	// mutexFraction is installed via runtime.SetMutexProfileFraction for
	// the profiler's lifetime and restored on Stop; negative leaves the
	// runtime setting untouched.
	mutexFraction int
}

func (c *ProfileConfig) fill() error {
	if c.Dir == "" {
		return fmt.Errorf("obs: profiler needs a directory")
	}
	if c.Interval <= 0 {
		c.Interval = DefaultProfileInterval
	}
	if c.cpuDuration == 0 {
		c.cpuDuration = DefaultProfileCPUDuration
	}
	if c.cpuDuration > c.Interval {
		c.cpuDuration = c.Interval
	}
	if c.maxBytes <= 0 {
		c.maxBytes = DefaultProfileMaxBytes
	}
	if c.mutexFraction == 0 {
		c.mutexFraction = DefaultMutexFraction
	}
	return nil
}

// ProfileFile describes one on-disk profile in the ring.
type ProfileFile struct {
	// Kind is the profile kind ("cpu", "heap", "goroutine", "mutex").
	Kind string `json:"kind"`
	// Path is the file's location; Bytes its size; Time its capture time
	// (from the file name, so it survives copies).
	Path  string    `json:"path"`
	Bytes int64     `json:"bytes"`
	Time  time.Time `json:"time"`
}

// Profiler captures pprof profiles on a cadence into a bounded on-disk
// ring. All methods are safe for concurrent use and safe on a nil
// receiver (no-ops).
type Profiler struct {
	cfg ProfileConfig

	// mu serializes capture rounds (background loop vs CaptureNow) and
	// the eviction scan.
	mu sync.Mutex

	startOnce sync.Once
	stopOnce  sync.Once
	quit      chan struct{}
	done      chan struct{}

	prevMutexFrac int
}

// NewProfiler validates cfg and creates the ring directory. The
// background loop does not run until Start; CaptureNow works
// immediately.
func NewProfiler(cfg ProfileConfig) (*Profiler, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: profiler: %w", err)
	}
	return &Profiler{cfg: cfg, quit: make(chan struct{}), done: make(chan struct{})}, nil
}

// Start launches the background capture loop. Idempotent; a nil
// receiver no-ops.
func (p *Profiler) Start() {
	if p == nil {
		return
	}
	p.startOnce.Do(func() {
		if p.cfg.mutexFraction >= 0 {
			p.prevMutexFrac = runtime.SetMutexProfileFraction(p.cfg.mutexFraction)
		}
		go p.loop()
	})
}

// Stop ends the background loop and waits for an in-progress capture
// round to finish. Safe to call more than once and on a nil receiver.
func (p *Profiler) Stop() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() {
		close(p.quit)
		// If Start never ran, consume the once so a later Start can't
		// launch the loop, and close done ourselves so the wait below
		// returns immediately.
		p.startOnce.Do(func() { close(p.done) })
		<-p.done
	})
}

func (p *Profiler) loop() {
	defer close(p.done)
	defer func() {
		if p.cfg.mutexFraction >= 0 {
			runtime.SetMutexProfileFraction(p.prevMutexFrac)
		}
	}()
	for {
		if _, err := p.CaptureNow(); err != nil && p.cfg.Logger != nil {
			p.cfg.Logger.Warn("profile capture failed", slog.String("error", err.Error()))
		}
		select {
		case <-p.quit:
			return
		case <-time.After(p.cfg.Interval):
		}
	}
}

// CaptureNow takes one capture round immediately — CPU (for the
// configured sample), heap, goroutine and mutex — writes the files into
// the ring, evicts past the byte budget, and returns the round's files. It
// serializes against the background loop; a nil receiver returns nil.
// A partially failing round (e.g. the CPU profile is already taken by
// someone else) still writes the kinds that succeeded and reports the
// first failure.
func (p *Profiler) CaptureNow() ([]ProfileFile, error) {
	if p == nil {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	var files []ProfileFile
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	write := func(kind string, fill func(f *os.File) error) {
		path := filepath.Join(p.cfg.Dir, profileName(kind, now))
		f, err := os.Create(path)
		if err != nil {
			fail(err)
			return
		}
		if err := fill(f); err != nil {
			f.Close()
			os.Remove(path)
			fail(fmt.Errorf("obs: %s profile: %w", kind, err))
			return
		}
		if err := f.Close(); err != nil {
			fail(err)
			return
		}
		st, err := os.Stat(path)
		if err != nil {
			fail(err)
			return
		}
		files = append(files, ProfileFile{Kind: kind, Path: path, Bytes: st.Size(), Time: now})
	}
	if p.cfg.cpuDuration > 0 {
		write("cpu", func(f *os.File) error {
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
			}
			select {
			case <-p.quit:
			case <-time.After(p.cfg.cpuDuration):
			}
			pprof.StopCPUProfile()
			return nil
		})
	}
	for _, kind := range []string{"heap", "goroutine", "mutex"} {
		prof := pprof.Lookup(kind)
		if prof == nil {
			continue
		}
		write(kind, func(f *os.File) error { return prof.WriteTo(f, 0) })
	}
	p.evictLocked(files)
	return files, firstErr
}

// Inventory lists the ring's on-disk profiles, oldest first. A nil
// receiver returns nil.
func (p *Profiler) Inventory() []ProfileFile {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.scanLocked()
}

// Newest returns the most recent on-disk profile of the given kind, or
// a zero ProfileFile when none exists.
func (p *Profiler) Newest(kind string) ProfileFile {
	var out ProfileFile
	for _, f := range p.Inventory() {
		if f.Kind == kind {
			out = f // inventory is oldest-first; keep overwriting
		}
	}
	return out
}

// profileName encodes kind and capture time so the inventory sorts
// chronologically by name and survives copies: kind-<unixnano>.pprof.
func profileName(kind string, t time.Time) string {
	return fmt.Sprintf("%s-%020d.pprof", kind, t.UnixNano())
}

// parseProfileName inverts profileName; ok is false for foreign files.
func parseProfileName(name string) (kind string, t time.Time, ok bool) {
	base, found := strings.CutSuffix(name, ".pprof")
	if !found {
		return "", time.Time{}, false
	}
	i := strings.LastIndexByte(base, '-')
	if i <= 0 {
		return "", time.Time{}, false
	}
	var ns int64
	if _, err := fmt.Sscanf(base[i+1:], "%d", &ns); err != nil {
		return "", time.Time{}, false
	}
	return base[:i], time.Unix(0, ns), true
}

// scanLocked lists the ring's files oldest-first. Callers hold mu.
func (p *Profiler) scanLocked() []ProfileFile {
	entries, err := os.ReadDir(p.cfg.Dir)
	if err != nil {
		return nil
	}
	var files []ProfileFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		kind, t, ok := parseProfileName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, ProfileFile{
			Kind: kind, Path: filepath.Join(p.cfg.Dir, e.Name()),
			Bytes: info.Size(), Time: t,
		})
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].Time.Equal(files[j].Time) {
			return files[i].Time.Before(files[j].Time)
		}
		return files[i].Path < files[j].Path
	})
	return files
}

// evictLocked removes the oldest ring files until the directory fits
// its byte budget again. The files of the round just captured (keep) are
// never evicted, so the ring always holds at least one complete round
// even under a budget smaller than a round. Callers hold mu.
func (p *Profiler) evictLocked(keep []ProfileFile) {
	keepSet := make(map[string]bool, len(keep))
	for _, f := range keep {
		keepSet[f.Path] = true
	}
	files := p.scanLocked()
	var total int64
	for _, f := range files {
		total += f.Bytes
	}
	for _, f := range files {
		if total <= p.cfg.maxBytes {
			return
		}
		if keepSet[f.Path] {
			continue
		}
		if err := os.Remove(f.Path); err != nil {
			continue
		}
		total -= f.Bytes
		if p.cfg.Logger != nil {
			p.cfg.Logger.Debug("evicted profile past disk budget",
				slog.String("path", f.Path), slog.Int64("bytes", f.Bytes))
		}
	}
}
