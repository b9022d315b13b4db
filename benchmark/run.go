package main

// run.go drives one workload in this process: set-up (three times, for a
// steady setup_s), the four phases, the traced run's extras, and the
// assembly of the metric values.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"buckwild"
)

const (
	defaultSeed    = 1
	defaultSeconds = 15
	setupRounds    = 3
)

// threads is P of the issue: training threads and client connections,
// min(nproc, 4). The harness never sets GOMAXPROCS.
func threads() int { return min(runtime.NumCPU(), 4) }

// envInfo is recorded in every output.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	P          int     `json:"p"`
	Loadavg    float64 `json:"loadavg"`
	// Noisy marks a run started while the 1-minute load average was above
	// nproc/2: its timings compete with something else.
	Noisy bool `json:"noisy"`
}

func readEnv() envInfo {
	e := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, Commit: commit(), P: threads(),
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.Loadavg, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	e.Noisy = e.Loadavg > float64(e.NProc)/2
	return e
}

// commit reads the checked-out commit without running git: the acceptance
// checkout is not a repository, and there it is "unknown".
func commit() string {
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(s, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
				return strings.TrimSpace(string(b))
			}
			return ref
		}
		return s
	}
	return "unknown"
}

// metricValue is one printed number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadRun is everything one run of one workload produced.
type workloadRun struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Scale    string  `json:"scale,omitempty"`
	Trace    bool    `json:"trace"`
	Env      envInfo `json:"env"`
	WallS    float64 `json:"wall_s"`

	Correct     bool     `json:"correct"`
	Attempted   int64    `json:"attempted"`
	Failed      int64    `json:"failed"`
	CheckErrors []string `json:"check_errors,omitempty"`

	// Metrics holds the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one.
	Metrics map[string]metricValue `json:"metrics"`
	// Samples holds what each end-to-end value is the median of: one
	// number per repetition or window.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// TailLabel names the percentile req_p99_us actually is (p99 unless
	// the windows were too short to have ten samples beyond it).
	TailLabel string `json:"tail_label,omitempty"`
	// LayerSelfS is the traced run's self time by layer.
	LayerSelfS map[string]float64 `json:"layer_self_s,omitempty"`
	// TracedPrimary is the traced pass's own reading of the workload's
	// primary end-to-end metric, for the trace-overhead ratio.
	TracedPrimary float64 `json:"traced_primary,omitempty"`
}

// runCtx carries one pass over the phases.
type runCtx struct {
	w       workload
	seed    uint64
	seconds float64
	p       int
	workDir string
	golden  *goldenFile
	// rec is nil on the untraced pass; root is the pass's root span.
	rec     *recorder
	root    int
	corrupt corruption

	// setupRounds is how many times set-up runs (its median is setup_s).
	setupRounds int
	// simSeedOffset moves the pass's simulator seeds: the memo is
	// process-global, so the untraced pass of a traced run must not warm
	// the very points the traced pass is about to time.
	simSeedOffset uint64
	// lean is set on the two passes of a traced run: they share one run's
	// seconds, so each makes do with a single repetition where an
	// end-to-end run insists on several.
	lean bool

	samples map[string][]float64
	layer   map[string]float64
	// runAcc and workerNsPerStep are per-layer intermediates that the
	// phases fill and the replay turns into metrics.
	runAcc          runAcc
	workerNsPerStep float64
	// plainNPS is the train phase's own plain repetitions (train_nps,
	// except when that comes from training beside serving).
	plainNPS  []float64
	tailLabel string
	checkErrs []string
	attempted int64
	failed    int64
}

// corruption is the tests' fault injection into the checks: each field,
// when set, falsifies one observed output so that the check must fail.
type corruption struct {
	// servedMargin flips a bit in every served margin that is checked.
	servedMargin bool
	// golden edits the loaded golden.json before the run.
	golden func(*goldenFile)
}

func (c *runCtx) traced() bool { return c.rec != nil }

// minReps is how many repetitions a phase makes even when its seconds run
// out first.
func (c *runCtx) minReps(n int) int {
	if c.lean {
		return 1
	}
	return n
}

func (c *runCtx) sample(name string, v float64) {
	c.samples[name] = append(c.samples[name], v)
}

func (c *runCtx) setLayer(name string, v float64) { c.layer[name] = v }

func (c *runCtx) checkf(format string, args ...any) {
	c.checkErrs = append(c.checkErrs, fmt.Sprintf(format, args...))
}

// op counts one operation of the program under test and whether it failed.
func (c *runCtx) op(err error) error {
	c.attempted++
	if err != nil {
		c.failed++
	}
	return err
}

func (c *runCtx) budget(phase int) time.Duration {
	return time.Duration(c.w.Share[phase] * c.seconds * float64(time.Second))
}

// phase is one of the four parts of a run. The run interleaves them: in
// each of passRounds rounds every phase gets a slice of its share of the
// seconds, so that each metric's repetitions are spread over the whole run
// and a few noisy seconds on the host do not land on one metric alone.
type phase interface {
	// round spends about slice on timed repetitions; last is set on the
	// final round, when a phase makes up any repetitions it still owes.
	round(slice time.Duration, last bool) error
	// finish ends the phase: output checks and, when traced, its layer
	// metrics.
	finish() error
}

// passRounds is how many times the phases take turns.
const passRounds = 4

// account is a phase's time account. Each round credits it with the
// phase's slice and repetitions are charged what they took, so a
// repetition longer than a slice is paid off over the following rounds
// and the phase as a whole keeps to its share.
type account struct {
	balance time.Duration
	reps    int
}

// spend credits the account and repeats rep while it is in credit, or,
// on the last round, until minReps repetitions were made in all. maxReps
// caps the total.
func (a *account) spend(credit time.Duration, last bool, minReps, maxReps int, rep func(i int) error) error {
	a.balance += credit
	for a.reps < maxReps && (a.balance > 0 || (last && a.reps < minReps)) {
		t0 := time.Now()
		if err := rep(a.reps); err != nil {
			return err
		}
		a.balance -= time.Since(t0)
		a.reps++
	}
	return nil
}

// inputs is what set-up produces.
type inputs struct {
	trainDense  *buckwild.DenseDataset
	trainSparse *buckwild.SparseDataset
	libsvmPath  string
	commData    *buckwild.DenseDataset
	serveData   *buckwild.DenseDataset
	corpus      []request
	srv         *server
	genDenseS   float64
}

func (in *inputs) close() {
	if in != nil && in.srv != nil {
		in.srv.close()
	}
}

// setup makes the inputs from the seed, starts the server, promotes the
// first model and warms the connections: everything before the first timed
// repetition.
func (c *runCtx) setup() (*inputs, error) {
	in := &inputs{}
	w := c.w
	var err error
	// genDense times the dense generations for dataset.gen_dense_s.
	genDense := func(sig string, n, m int, seed uint64) (*buckwild.DenseDataset, error) {
		t0 := time.Now()
		ds, err := buckwild.GenerateDense(sig, n, m, seed)
		in.genDenseS += time.Since(t0).Seconds()
		return ds, err
	}
	if w.Train.Sparse {
		in.trainSparse, in.libsvmPath, err = genTrainSparse(w.Train, c.seed, c.workDir)
	} else {
		in.trainDense, err = genDense(w.Train.Sig, w.Train.N, w.Train.M, c.seed+seedTrainData)
	}
	if err != nil {
		return nil, fmt.Errorf("train data: %w", err)
	}
	if in.commData, err = genDense("D32fM32f", w.Comm.N, w.Comm.M, c.seed+seedCommData); err != nil {
		return nil, fmt.Errorf("comm data: %w", err)
	}
	if w.Serve.Train {
		in.serveData = in.trainDense
	} else if in.serveData, err = genDense("D8M8", w.Serve.Dim, 1024, c.seed+seedServeData); err != nil {
		return nil, fmt.Errorf("serve data: %w", err)
	}
	in.corpus, err = genCorpus(w.Serve.Dim, c.seed)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	in.srv, err = startServer(c, in)
	if err != nil {
		in.close()
		return nil, fmt.Errorf("server: %w", err)
	}
	return in, nil
}

// runOpts is how to run a workload.
type runOpts struct {
	seed     uint64
	seconds  float64
	trace    bool
	scale    string // "tiny" shrinks the inputs
	traceOut string // traced run: Chrome trace file to write
	corrupt  corruption
}

// runWorkload runs one workload in this process and returns its result.
// With trace off it is one untraced pass. With trace on, a quarter of the
// seconds go to an untraced pass (the baseline of
// harness.trace_overhead_ratio), half to the traced pass, and the rest is
// left for the replay spans.
func runWorkload(w workload, o runOpts) (*workloadRun, error) {
	start := time.Now()
	env := readEnv()
	if o.scale == "tiny" {
		w = w.tiny()
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(".bench_build", "work-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	if o.corrupt.golden != nil {
		o.corrupt.golden(golden)
	}
	newCtx := func(secs float64, rounds int, rec *recorder) *runCtx {
		return &runCtx{w: w, seed: o.seed, seconds: secs, p: threads(), workDir: workDir, golden: golden,
			rec: rec, corrupt: o.corrupt, setupRounds: rounds, lean: o.trace,
			samples: map[string][]float64{}, layer: map[string]float64{}}
	}
	out := &workloadRun{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Trace: o.trace, Env: env}

	var c *runCtx
	if !o.trace {
		c = newCtx(o.seconds, setupRounds, nil)
		if err := c.pass(); err != nil {
			return nil, err
		}
		out.Metrics = c.endToEndMetrics()
		out.Samples = c.samples
		out.TailLabel = c.tailLabel
	} else {
		base := newCtx(o.seconds/4, 1, nil)
		base.simSeedOffset = 1 << 16
		if err := base.pass(); err != nil {
			return nil, err
		}
		c = newCtx(o.seconds/2, 1, newRecorder())
		if err := c.pass(); err != nil {
			return nil, err
		}
		c.checkErrs = append(base.checkErrs, c.checkErrs...)
		c.attempted += base.attempted
		c.failed += base.failed
		c.setLayer("harness.trace_overhead_ratio", overheadRatio(w.PrimaryMetric, base, c))
		// NumHealth against plain on the untraced pass: the traced pass's
		// sensors would be in both sides of the ratio.
		c.setLayer("core.health_ratio", median(base.samples["train_health_nps"])/median(base.plainNPS))
		c.setLayer("harness.loadavg", env.Loadavg)
		c.processMetrics()
		spans := c.rec.snapshot()
		out.LayerSelfS = layerSelfSeconds(spans)
		out.TracedPrimary = median(c.samples[w.PrimaryMetric])
		out.Metrics = c.perLayerMetrics()
		if o.traceOut != "" {
			f, err := os.Create(o.traceOut)
			if err != nil {
				return nil, err
			}
			if err := writeChrome(f, spans); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
	}
	out.CheckErrors = c.checkErrs
	out.Correct = len(c.checkErrs) == 0
	out.Attempted, out.Failed = max(c.attempted, 1), c.failed
	out.WallS = time.Since(start).Seconds()
	return out, nil
}

// overheadRatio is the primary metric untraced over traced, turned so that
// a value above 1 means the traced pass was slower.
func overheadRatio(metric string, base, traced *runCtx) float64 {
	b, t := median(base.samples[metric]), median(traced.samples[metric])
	if b == 0 || t == 0 {
		return 0
	}
	if m, _ := findMetric(metric); m.Better == lower {
		return t / b
	}
	return b / t
}

// pass runs set-up and the four phases, interleaved, once.
func (c *runCtx) pass() error {
	rootSpan := c.rec.begin(0, "harness", "workload:"+c.w.Name)
	c.root = rootSpan.id
	defer rootSpan.end()

	// Set-up runs several times so that setup_s is a median; the last
	// round's products are the ones the phases use.
	var in *inputs
	for i := 0; i < c.setupRounds; i++ {
		in.close()
		in = nil
		runtime.GC() // the previous round's datasets would otherwise be charged to this one
		sp := c.rec.begin(c.root, "harness", "setup")
		t0 := time.Now()
		var err error
		in, err = c.setup()
		if c.op(err) != nil {
			return fmt.Errorf("%s: set-up: %w", c.w.Name, err)
		}
		c.sample("setup_s", time.Since(t0).Seconds())
		sp.end()
	}
	defer in.close()
	c.setLayer("dataset.gen_dense_s", in.genDenseS)

	var phases [numPhases]phase
	for i, start := range [numPhases]func() (phase, error){
		phTrain: func() (phase, error) { return c.newTrainPhase(in) },
		phSim:   func() (phase, error) { return c.newSimPhase() },
		phComm:  func() (phase, error) { return c.newCommPhase(in) },
		phServe: func() (phase, error) { return c.newServePhase(in) },
	} {
		var err error
		if phases[i], err = start(); err != nil {
			return fmt.Errorf("%s: %s phase: %w", c.w.Name, phaseNames[i], err)
		}
	}
	for r := 0; r < passRounds; r++ {
		for i, ph := range phases {
			if err := ph.round(c.budget(i)/passRounds, r == passRounds-1); err != nil {
				return fmt.Errorf("%s: %s phase: %w", c.w.Name, phaseNames[i], err)
			}
		}
	}
	for i, ph := range phases {
		if err := ph.finish(); err != nil {
			return fmt.Errorf("%s: %s phase: %w", c.w.Name, phaseNames[i], err)
		}
	}
	if c.traced() {
		if err := c.replay(in); err != nil {
			return fmt.Errorf("%s: replay: %w", c.w.Name, err)
		}
	}
	return nil
}

// endToEndMetrics reduces the samples to the eleven printed values.
func (c *runCtx) endToEndMetrics() map[string]metricValue {
	out := map[string]metricValue{}
	for _, m := range endToEnd {
		out[m.Name] = metricValue{Value: median(c.samples[m.Name]), Unit: m.Unit}
	}
	return out
}

func (c *runCtx) perLayerMetrics() map[string]metricValue {
	out := map[string]metricValue{}
	for _, m := range perLayer {
		out[m.Name] = metricValue{Value: c.layer[m.Name], Unit: m.Unit}
	}
	return out
}

// processMetrics reads the process-wide counters at the end of the run.
func (c *runCtx) processMetrics() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.setLayer("proc.alloc_mb", float64(ms.TotalAlloc)/(1<<20))
	c.setLayer("proc.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
	c.setLayer("proc.gc_cpu_frac", ms.GCCPUFraction)
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					kb, _ := strconv.ParseFloat(f[0], 64)
					c.setLayer("proc.peak_rss_mb", kb/1024)
				}
			}
		}
	}
}
