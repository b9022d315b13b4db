// Package buckwild is a Go reproduction of "Understanding and Optimizing
// Asynchronous Low-Precision Stochastic Gradient Descent" (De Sa, Feldman,
// Ré, Olukotun — ISCA 2017).
//
// It provides:
//
//   - the Buckwild! training engine: Hogwild!-style asynchronous SGD over
//     a shared low-precision model, configurable across the full DMGC
//     (Dataset / Model / Gradient / Communication precision) space;
//   - the DMGC signature taxonomy and the Section 4 roofline-style
//     performance model;
//   - a simulated multicore machine (instruction cost model + MESI cache
//     hierarchy with the obstinate-cache and prefetch studies) that stands
//     in for the paper's Xeon and ZSim measurements;
//   - an FPGA design model reproducing the Section 8 study;
//   - synchronous quantized-gradient training with error feedback
//     (TrainSync), LIBSVM input (LoadLibSVM) and model persistence
//     (SaveModelFile / LoadModelFile);
//   - a simulated multi-node cluster tier (Config.Cluster): a parameter
//     server and a pipelined all-reduce over a latency/bandwidth-modeled
//     interconnect, with gradients wire-quantized at the communication
//     precision and every wire byte counted exactly (Result.Cluster);
//   - run-level observability: training hooks, per-run counters and a
//     sampled write–read staleness histogram (Hooks, RunStats), collected
//     only when requested and free otherwise.
//
// All configuration errors carry the "buckwild:" prefix and are reported
// by Config.Validate before any work starts.
//
// The top-level package is a thin facade over the internal packages; see
// the examples directory for runnable end-to-end programs and DESIGN.md
// for the system inventory.
package buckwild

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"

	"buckwild/internal/core"
	"buckwild/internal/dataset"
	"buckwild/internal/dmgc"
	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
)

// Signature is a DMGC signature (e.g. "D8M8", "D32fi32M32f"); see
// Section 3 of the paper.
type Signature = dmgc.Signature

// ParseSignature parses a signature in the paper's notation.
func ParseSignature(s string) (Signature, error) {
	return dmgc.Parse(s)
}

// PredictThroughput applies the Section 4 performance model: dataset
// throughput in GNPS for a signature at a model size and thread count,
// using the paper's Table 2 base throughputs.
func PredictThroughput(sig Signature, modelSize, threads int) (float64, error) {
	return dmgc.DefaultPerfModel().Throughput(sig, modelSize, threads)
}

// Problem selects the objective being optimized. The zero value means
// Logistic. Untyped string literals ("logistic") still assign to it, so
// code written against the old string-typed field keeps compiling.
type Problem string

// The supported objectives.
const (
	// Logistic is binary logistic regression (the paper's main task).
	Logistic Problem = "logistic"
	// Linear is least-squares linear regression.
	Linear Problem = "linear"
	// SVM is a hinge-loss support vector machine.
	SVM Problem = "svm"
)

// String names the problem, resolving the zero value to its default.
func (p Problem) String() string {
	if p == "" {
		return string(Logistic)
	}
	return string(p)
}

// Valid reports whether p names a supported objective.
func (p Problem) Valid() bool {
	switch p {
	case "", Logistic, Linear, SVM:
		return true
	}
	return false
}

// core maps the facade problem onto the engine's enum.
func (p Problem) core() (core.Problem, error) {
	switch p {
	case "", Logistic:
		return core.Logistic, nil
	case Linear:
		return core.Linear, nil
	case SVM:
		return core.SVM, nil
	}
	return 0, fmt.Errorf("buckwild: unknown problem %q", string(p))
}

// Rounding selects the model-write rounding strategy (Section 5.2).
type Rounding string

// Rounding strategies, in increasing order of hardware efficiency among
// the unbiased ones.
const (
	// Biased is nearest-neighbor rounding: fastest, statistically worst.
	Biased Rounding = "biased"
	// UnbiasedMT is stochastic rounding with a Mersenne-twister draw per
	// write (the slow Boost-based baseline).
	UnbiasedMT Rounding = "unbiased-mt"
	// UnbiasedXorshift is stochastic rounding with vectorized XORSHIFT.
	UnbiasedXorshift Rounding = "unbiased-xorshift"
	// UnbiasedShared reuses each XORSHIFT draw across several writes —
	// the paper's recommended strategy.
	UnbiasedShared Rounding = "unbiased-shared"
	// UnbiasedHardware models the Section 6.1 QAXPY instructions rounding
	// in hardware: statistically like UnbiasedXorshift, but the rounding
	// costs no instructions. Only the simulated machine distinguishes it.
	UnbiasedHardware Rounding = "unbiased-hardware"
)

// Valid reports whether r names a supported strategy.
func (r Rounding) Valid() bool {
	_, err := r.kind()
	return err == nil
}

func (r Rounding) kind() (kernels.QuantKind, error) {
	switch r {
	case "", UnbiasedShared:
		return kernels.QShared, nil
	case Biased:
		return kernels.QBiased, nil
	case UnbiasedMT:
		return kernels.QMersenne, nil
	case UnbiasedXorshift:
		return kernels.QXorshift, nil
	case UnbiasedHardware:
		return kernels.QHardware, nil
	}
	return 0, fmt.Errorf("buckwild: unknown rounding %q", r)
}

// Observability re-exports: installing Hooks in a Config makes the engine
// report progress and fill Result.Stats (NopHooks{} alone is enough).
type (
	// Hooks receives run-level callbacks; see the obs package for the
	// concurrency contract. Embed NopHooks to implement a subset.
	Hooks = obs.Hooks
	// NopHooks is a Hooks implementation that ignores every callback.
	NopHooks = obs.NopHooks
	// EpochInfo, StepInfo and WorkerInfo are the callback payloads.
	EpochInfo  = obs.EpochInfo
	StepInfo   = obs.StepInfo
	WorkerInfo = obs.WorkerInfo
	// RunStats is the counter snapshot in Result.Stats: steps, model
	// writes by rounding kind, mutex waits, mini-batch flushes, and the
	// sampled write–read staleness histogram.
	RunStats = obs.RunStats
	// Tracer records coarse phase spans (run attempts, epochs,
	// checkpoints, simulation phases) into a bounded in-memory ring and
	// exports them as Chrome trace_event JSON (chrome://tracing,
	// Perfetto). Create one with NewTracer and install it in a Config or
	// ServeConfig.
	Tracer = obs.Tracer
	// Series records the windowed training time-series (per-window loss,
	// throughput, gradient magnitude, mutex waits and a staleness
	// sub-histogram) under a fixed memory budget. Create one with
	// NewSeries and install it in Config.TimeSeries.
	Series = obs.Series
	// SeriesSnapshot and SeriesWindow are the exportable time-series
	// forms surfaced on Result.Series.
	SeriesSnapshot = obs.SeriesSnapshot
	SeriesWindow   = obs.SeriesWindow
	// NumStats is the numerical-health snapshot surfaced on
	// Result.Stats.NumHealth when Config.NumHealth is set: saturation
	// counts per clamp site, rounding-bias accumulators, gradient
	// underflows and the final weight distribution.
	NumStats = obs.NumStats
	// WeightStats and RoundingBias are NumStats components.
	WeightStats  = obs.WeightStats
	RoundingBias = obs.RoundingBias
	// HealthInfo is the numerical health an EpochInfo carries when
	// Config.NumHealth is set.
	HealthInfo = obs.HealthInfo
	// HealthWatchdog wraps a Hooks chain and cancels the run's context
	// with a *DivergenceError when an epoch's loss goes non-finite or its
	// saturation rate (0.5 per model write) or rounding-bias mean (0.25
	// quanta) crosses the fixed threshold.
	HealthWatchdog = obs.HealthWatchdog
	// DivergenceInfo describes why a HealthWatchdog fired; the tripping
	// epoch's EpochInfo carries it.
	DivergenceInfo = obs.DivergenceInfo
	// DivergenceError is the context cause installed by a fired
	// HealthWatchdog; errors.Is(err, ErrDivergence) matches it.
	DivergenceError = obs.DivergenceError
	// FlightRecorder is the always-on post-mortem ring: a bounded,
	// lock-free buffer of recent structured events (promotions, retries,
	// checkpoints, slow requests, epoch completions) dumped as JSON when a
	// run dies or on demand. Its feed is the log: events reach a ring rec
	// when the logger's handler is rec.LogHandler(h), so build the logger
	// you install in Config.Logger, ServeConfig.Logger and
	// BundleConfig.Logger that way, and put rec in a Surface's Flight. A
	// nil *FlightRecorder records nothing at no cost.
	FlightRecorder = obs.FlightRecorder
	// FlightEvent and FlightSnapshot are the recorder's exportable forms.
	FlightEvent    = obs.FlightEvent
	FlightSnapshot = obs.FlightSnapshot
	// ClusterMetrics keeps live, scrape-ready per-node counters of a
	// running cluster simulation; install one in
	// Config.Cluster.LiveMetrics and in a Surface's Cluster.
	ClusterMetrics = obs.ClusterMetrics
	// Surface holds one process's sensors once — flight ring, tracer,
	// series, profiler, live training, cluster and serving counters,
	// resolved flags and bundler — and mounts /metrics, /debug/flight,
	// /debug/dash and /debug/bundle over them. Install it in
	// ServeConfig.Surface.
	Surface = obs.Surface
	// Bundler writes anomaly-triggered debug bundles: one tar.gz with the
	// flight ring, trace window, series, pprof profiles, stats and
	// resolved config, written when the health watchdog trips, the stall
	// watchdog fires, retries are exhausted or a serve request crosses
	// the slow threshold. Create one over a Surface with NewBundler and
	// install it in Config.Bundle and the Surface's Bundle. A nil
	// *Bundler is inert.
	Bundler = obs.Bundler
	// BundleConfig configures a Bundler; BundleManifest and BundleInfo
	// are the bundle's self-description and parsed form (ReadBundle).
	BundleConfig   = obs.BundleConfig
	BundleManifest = obs.BundleManifest
	BundleInfo     = obs.BundleInfo
	// Profiler captures CPU/heap/goroutine/mutex pprof profiles on a
	// cadence into a bounded on-disk ring; ProfileConfig configures it.
	// Create one with NewProfiler. A nil *Profiler is inert.
	Profiler      = obs.Profiler
	ProfileConfig = obs.ProfileConfig
)

// ErrDivergence matches (via errors.Is) the error a run returns after a
// HealthWatchdog cancelled it.
var ErrDivergence = obs.ErrDivergence

// NewTracer returns a trace-span recorder keeping at most capacity spans
// (<= 0 selects the default, obs.DefaultTraceCapacity). A nil *Tracer is
// valid everywhere one is accepted and records nothing at no cost.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewSeries returns a windowed time-series recorder keeping at most
// budget windows (<= 0 selects the default, obs.DefaultSeriesBudget).
// Runs of any length fit the budget: when it fills, adjacent windows are
// merged pairwise and the per-window epoch stride doubles.
func NewSeries(budget int) *Series { return obs.NewSeries(budget) }

// NewFlightRecorder returns a post-mortem event ring keeping the most
// recent capacity events (<= 0 selects obs.DefaultFlightCapacity).
func NewFlightRecorder(capacity int) *FlightRecorder {
	return obs.NewFlightRecorder(capacity)
}

// NewBundler returns a debug-bundle writer putting tar.gz bundles of
// src's sensors in cfg.Dir (created if missing). Wire its triggers by
// installing it in Config.Bundle, src.Bundle (which the serving daemon
// triggers on slow requests) or a HealthWatchdog's Bundle field.
func NewBundler(cfg BundleConfig, src *Surface) (*Bundler, error) {
	b, err := obs.NewBundler(cfg, src)
	return b, wrapErr(err)
}

// NewProfiler returns a continuous profiler writing its pprof ring into
// cfg.Dir (created if missing). Call Start to begin the background
// cadence and Stop to end it; CaptureNow works without Start.
func NewProfiler(cfg ProfileConfig) (*Profiler, error) {
	p, err := obs.NewProfiler(cfg)
	return p, wrapErr(err)
}

// ReadBundle parses a debug bundle stream (as written by a Bundler) into
// its manifest, flight and series sections and raw entries.
func ReadBundle(r io.Reader) (*BundleInfo, error) {
	info, err := obs.ReadBundle(r)
	return info, wrapErr(err)
}

// NewLogger builds a structured logger writing to w: format is "text" or
// "json", level one of "debug", "info", "warn", "error" (both
// case-insensitive; empty selects text/info). Install it in
// Config.Logger or ServeConfig.Logger; a nil *slog.Logger is valid
// everywhere one is accepted and logs nothing.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	l, err := obs.NewLogger(w, format, level)
	return l, wrapErr(err)
}

// Config configures a training run. The zero value of optional fields
// selects the paper's recommended defaults (hand-optimized kernels,
// shared-randomness unbiased rounding, one thread, one epoch).
type Config struct {
	// Signature sets the precisions, e.g. "D8M8"; the index term must
	// match the dataset for sparse problems. Empty means full precision.
	Signature string
	// Problem selects the objective (Logistic, Linear, SVM); the zero
	// value is Logistic.
	Problem Problem
	// Rounding selects the quantization strategy for model writes.
	Rounding Rounding
	// GenericKernels disables the hand-optimized kernel semantics
	// (Section 5.1's compiler-style baseline).
	GenericKernels bool
	// Locked replaces lock-free Hogwild! updates with a mutex, the
	// baseline asynchrony beats.
	Locked  bool
	Threads int
	// MiniBatch is B, examples per model update (Section 5.4).
	MiniBatch int
	StepSize  float32
	StepDecay float32
	Epochs    int
	Seed      uint64

	// Hooks, when non-nil, receives per-epoch, sampled per-step and
	// per-worker callbacks during training, and makes the engine fill
	// Result.Stats. Steps are sampled every obs.DefaultStepSample updates
	// for both OnStep and the staleness histogram. When unset the engine
	// runs the bare algorithm — the only residual cost is one nil check
	// per step.
	Hooks Hooks
	// Tracer, when non-nil, records the run's coarse phases (the run,
	// each epoch) as trace spans; export them with Tracer.WriteTrace.
	// Nil traces nothing at no cost.
	Tracer *Tracer
	// TimeSeries, when non-nil, records the windowed training
	// time-series surfaced on Result.Series. Nil records nothing at no
	// cost.
	TimeSeries *Series
	// NumHealth enables numerical-health collection: saturation events
	// per clamp site, signed rounding-bias accumulators, gradient
	// underflows and a per-epoch weight-distribution snapshot, surfaced
	// on Result.Stats.NumHealth. Off (the default) it costs one nil check
	// per kernel call.
	NumHealth bool
	// Logger, when non-nil, receives the run's events, one record each
	// with an "event" attribute: cluster epoch completions (component
	// "cluster") and, through RunConfig, supervisor resumes, checkpoints,
	// retries, degradations and retry exhaustion (component "run"). They
	// reach a flight ring rec when the logger's handler is
	// rec.LogHandler(h). Build one with NewLogger; nil is silent at no
	// cost.
	Logger *slog.Logger
	// Bundle, when non-nil, gets a debug bundle triggered on supervised-
	// run anomalies (stall watchdog, retry exhaustion); point a
	// HealthWatchdog's Bundle field at the same Bundler to cover
	// divergence trips too. Nil writes nothing at no cost.
	Bundle *Bundler

	// Context, when non-nil, bounds the run: cancellation or deadline
	// expiry stops training well within one epoch and the entry point
	// returns the context's cause (context.Canceled,
	// context.DeadlineExceeded, or a custom cause) wrapped with the
	// facade's "buckwild:" prefix — errors.Is still matches. Nil means
	// the run is unbounded, at no per-step cost.
	Context context.Context

	// Cluster extends the run across a simulated multi-node cluster. The
	// zero value keeps single-machine training exactly as before; with
	// Nodes >= 2, dense runs go through the cluster tier (see
	// ClusterConfig) and Result.Cluster reports the exact wire bytes.
	Cluster ClusterConfig
}

// Validate checks the configuration without running anything. Every
// training entry point calls it first, so all bad inputs fail fast with
// a "buckwild:"-prefixed error; callers building configs from user input
// can call it directly for early feedback.
func (c Config) Validate() error {
	if c.Signature != "" {
		if _, err := dmgc.Parse(c.Signature); err != nil {
			return wrapErr(err)
		}
	}
	if !c.Problem.Valid() {
		return fmt.Errorf("buckwild: unknown problem %q", string(c.Problem))
	}
	if _, err := c.Rounding.kind(); err != nil {
		return err
	}
	if c.Threads < 0 {
		return fmt.Errorf("buckwild: negative thread count %d", c.Threads)
	}
	if c.MiniBatch < 0 {
		return fmt.Errorf("buckwild: negative mini-batch size %d", c.MiniBatch)
	}
	if c.Epochs < 0 {
		return fmt.Errorf("buckwild: negative epoch count %d", c.Epochs)
	}
	if c.StepSize < 0 {
		return fmt.Errorf("buckwild: negative step size %v", c.StepSize)
	}
	if c.StepDecay < 0 {
		return fmt.Errorf("buckwild: negative step decay %v", c.StepDecay)
	}
	return c.Cluster.Validate()
}

// internalPrefixes are the error prefixes of the internal packages; the
// facade rewrites them to its own uniform prefix.
var internalPrefixes = []string{
	"core: ", "dataset: ", "run: ", "dmgc: ", "machine: ",
	"kernels: ", "fixed: ", "obs: ", "sweep: ", "cluster: ", "serve: ",
}

// wrapErr gives every error that crosses the facade the uniform
// "buckwild:" prefix. Internal-package prefixes are rewritten rather
// than stacked, and the original error stays in the chain, so
// errors.Is(err, context.Canceled) and friends keep working.
func wrapErr(err error) error {
	if err == nil || strings.HasPrefix(err.Error(), "buckwild:") {
		return err
	}
	msg := err.Error()
	for _, p := range internalPrefixes {
		if strings.HasPrefix(msg, p) {
			return &facadeError{msg: "buckwild: " + strings.TrimPrefix(msg, p), err: err}
		}
	}
	return fmt.Errorf("buckwild: %w", err)
}

// facadeError rewrites an internal error's prefix while keeping the
// original in the Unwrap chain.
type facadeError struct {
	msg string
	err error
}

func (e *facadeError) Error() string { return e.msg }
func (e *facadeError) Unwrap() error { return e.err }

// Result re-exports the engine's training result.
type Result = core.Result

// DenseDataset and SparseDataset re-export the dataset types.
type DenseDataset = dataset.DenseSet

// SparseDataset is a coordinate-form sparse dataset.
type SparseDataset = dataset.SparseSet

// observe gathers what a shared-memory run observes; supervised runs hand
// it to the supervisor as is.
func (c Config) observe() obs.Observer {
	return obs.Observer{
		Hooks: c.Hooks, Tracer: c.Tracer,
		Series: c.TimeSeries, NumHealth: c.NumHealth,
	}
}

// observer is the engine's Observer, or nil — the bare algorithm — when
// the configuration asks for no observation.
func (c Config) observer() *obs.Observer {
	o := c.observe()
	if o.Hooks == nil && o.Tracer == nil && o.Series == nil && !o.NumHealth {
		return nil
	}
	return &o
}

func (c Config) coreConfig(sparse bool, idxBits uint) (core.Config, error) {
	if err := c.Validate(); err != nil {
		return core.Config{}, err
	}
	sig, d, err := datasetSignature(c.Signature, sparse)
	if err != nil {
		return core.Config{}, err
	}
	if sparse && sig.IndexBits() != idxBits {
		return core.Config{}, fmt.Errorf("buckwild: signature index precision i%d, dataset stores i%d", sig.IndexBits(), idxBits)
	}
	m, err := kernels.TermPrec(sig.M)
	if err != nil {
		return core.Config{}, wrapErr(err)
	}
	prob, err := c.Problem.core()
	if err != nil {
		return core.Config{}, err
	}
	kind, err := c.Rounding.kind()
	if err != nil {
		return core.Config{}, err
	}
	variant := kernels.HandOpt
	if c.GenericKernels {
		variant = kernels.Generic
	}
	gradBits := uint(0)
	if sig.G.Present && !sig.G.Float && sig.G.Bits < 32 {
		gradBits = sig.G.Bits
	}
	sharing := core.Racy
	if c.Locked {
		sharing = core.Locked
	}
	if c.Threads <= 1 {
		sharing = core.Sequential
	}
	step := c.StepSize
	if step == 0 {
		step = 0.1
	}
	return core.Config{
		Problem:     prob,
		D:           d,
		M:           m,
		Variant:     variant,
		Quant:       kind,
		QuantPeriod: 8,
		GradBits:    gradBits,
		Threads:     c.Threads,
		MiniBatch:   c.MiniBatch,
		StepSize:    step,
		StepDecay:   c.StepDecay,
		Epochs:      c.Epochs,
		Sharing:     sharing,
		Seed:        c.Seed,
		Observer:    c.observer(),
		Ctx:         c.Context,
	}, nil
}

// datasetSignature parses the signature a dataset of the given kind is
// built or trained under, and returns it with its dataset precision.
// Empty text means full precision of that kind ("D32fM32f" or
// "D32fi32M32f"), and a signature whose index term does not match the
// kind is refused.
func datasetSignature(sigText string, sparse bool) (dmgc.Signature, kernels.Prec, error) {
	if sigText == "" {
		sigText = "D32fM32f"
		if sparse {
			sigText = "D32fi32M32f"
		}
	}
	sig, err := dmgc.Parse(sigText)
	if err != nil {
		return sig, 0, wrapErr(err)
	}
	switch {
	case sparse && !sig.Sparse():
		return sig, 0, fmt.Errorf("buckwild: signature %v has no index term", sig)
	case !sparse && sig.Sparse():
		return sig, 0, fmt.Errorf("buckwild: signature %v sparsity does not match the dataset", sig)
	}
	d, err := kernels.TermPrec(sig.D)
	return sig, d, wrapErr(err)
}

// GenerateDense samples a dense logistic-regression dataset from the
// paper's generative model, quantized at the signature's dataset
// precision.
func GenerateDense(sigText string, n, m int, seed uint64) (*DenseDataset, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("buckwild: dataset dimensions must be positive (n=%d, m=%d)", n, m)
	}
	_, p, err := datasetSignature(sigText, false)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.GenDense(dataset.DenseConfig{
		N: n, M: m, P: p, Rounding: fixed.Unbiased, Seed: seed,
	})
	return ds, wrapErr(err)
}

// GenerateSparse samples a sparse dataset at the signature's dataset and
// index precisions with the given density (the paper uses 0.03).
func GenerateSparse(sigText string, n, m int, density float64, seed uint64) (*SparseDataset, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("buckwild: dataset dimensions must be positive (n=%d, m=%d)", n, m)
	}
	if density <= 0 || density > 1 {
		return nil, fmt.Errorf("buckwild: density %v out of (0, 1]", density)
	}
	sig, p, err := datasetSignature(sigText, true)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.GenSparse(dataset.SparseConfig{
		N: n, M: m, Density: density, P: p, IdxBits: sig.IndexBits(),
		Rounding: fixed.Unbiased, Seed: seed,
	})
	return ds, wrapErr(err)
}
