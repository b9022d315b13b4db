// Package core implements the Buckwild! training engine — the paper's
// primary contribution: stochastic gradient descent that combines
// asynchronous lock-free execution (Hogwild!) with low-precision fixed-
// point arithmetic, configurable over the full DMGC space.
//
// Worker goroutines share one model vector and update it without
// synchronization; as in the paper, the resulting races are part of the
// algorithm's semantics and provably benign for well-behaved problems. A
// Locked sharing mode is provided as the baseline that Hogwild! famously
// outruns, and a Sequential mode for deterministic single-thread runs.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
	"buckwild/internal/prng"
)

// Problem selects the loss being minimized. All three have the
// dot-and-AXPY step structure of Section 2.
type Problem int

const (
	// Logistic is l(w) = log(1+exp(-y w.x)), the paper's running
	// example.
	Logistic Problem = iota
	// Linear is squared loss (w.x - y)^2 / 2.
	Linear
	// SVM is hinge loss max(0, 1 - y w.x).
	SVM
)

// String names the problem.
func (p Problem) String() string {
	switch p {
	case Logistic:
		return "logistic"
	case Linear:
		return "linear"
	case SVM:
		return "svm"
	}
	return fmt.Sprintf("Problem(%d)", int(p))
}

// Sharing selects how workers share the model.
type Sharing int

const (
	// Racy is true Hogwild!/Buckwild!: lock-free unsynchronized
	// updates.
	Racy Sharing = iota
	// Locked serializes every step with a mutex — the slow baseline.
	Locked
	// Sequential runs all work on the calling goroutine regardless of
	// Threads, for deterministic experiments.
	Sequential
)

// String names the sharing mode.
func (s Sharing) String() string {
	switch s {
	case Racy:
		return "racy"
	case Locked:
		return "locked"
	case Sequential:
		return "sequential"
	}
	return fmt.Sprintf("Sharing(%d)", int(s))
}

// Config configures a training run.
type Config struct {
	Problem Problem
	// D and M are the dataset and model precisions. D must match the
	// dataset's storage precision.
	D, M kernels.Prec
	// Variant selects generic or hand-optimized kernel semantics.
	Variant kernels.Variant
	// Quant picks the model-write rounding strategy (ignored for F32
	// models); QuantPeriod is the sharing period for QShared.
	Quant       kernels.QuantKind
	QuantPeriod int
	// GradBits is the DMGC G term: the precision of intermediate
	// gradient values (the dot result and the AXPY scalar). Zero or 32
	// means full precision (the G term is omitted from the signature).
	// Low-precision gradients use nearest rounding over a fixed-point
	// grid with range [-16, 16), like the low-precision multipliers of
	// Courbariaux et al. (Table 1's G10).
	GradBits uint
	// Threads is the number of asynchronous workers.
	Threads int
	// MiniBatch is B, the examples per model update (default 1).
	MiniBatch int
	// StepSize is the initial eta; StepDecay multiplies it after each
	// epoch (default 1: constant step).
	StepSize  float32
	StepDecay float32
	Epochs    int
	Sharing   Sharing
	// ObstinateQ emulates the statistical effect of the obstinate cache
	// (Section 6.2) in software: each worker reads the model through a
	// private snapshot that it re-synchronizes from the shared model
	// with probability 1-q before each step, so with probability q a
	// step computes on stale values, exactly as a cache that ignored
	// invalidates would. Writes always reach the shared model. Zero
	// disables the emulation (fully coherent reads).
	ObstinateQ float64
	Seed       uint64
	// Observer installs the run-level observability layer: sharded
	// counters, the sampled staleness histogram, and optional hooks
	// (see internal/obs). Nil runs the bare algorithm — the engine's
	// hot paths then pay only a nil check per step.
	Observer *obs.Observer

	// Ctx, when non-nil, bounds the run: it is checked at every epoch
	// boundary and every ctxCheckMask+1 steps inside the worker loops, so
	// cancellation or deadline expiry stops the run well within one epoch.
	// The run then returns context.Cause(Ctx) — context.Canceled,
	// context.DeadlineExceeded, or whatever cause the canceller supplied
	// (the run supervisor uses causes to tell injected faults apart).
	// Nil means the run is unbounded; the workers then pay only a nil
	// check per ctxCheckMask steps.
	Ctx context.Context
	// StartEpoch is the number of epochs a previous (checkpointed) run of
	// the same configuration already completed: training covers epochs
	// [StartEpoch, Epochs) and the step-size decay schedule continues
	// from where it stopped. Because every worker PRNG is derived from
	// (Seed, worker, epoch), resuming at an epoch boundary replays
	// exactly the updates an uninterrupted run would have performed.
	StartEpoch int
	// InitWeights, when non-nil, seeds the model with these dequantized
	// values instead of zeros — the resume path. The values are
	// re-quantized with nearest rounding, which round-trips exactly for
	// weights that came out of a model at the same precision.
	InitWeights []float32
	// EpochEnd, when non-nil, is invoked on the coordinating goroutine
	// after each epoch's loss evaluation, while the workers are joined —
	// the natural checkpoint boundary. Returning an error aborts the run
	// with that error. The callback must not retain W past its return.
	EpochEnd func(EpochState) error
}

// EpochState is the snapshot EpochEnd receives at an epoch boundary.
type EpochState struct {
	// Epoch is the cumulative number of completed epochs, counting the
	// StartEpoch epochs completed by previous runs.
	Epoch int
	// Loss is the full-precision training loss after the epoch.
	Loss float64
	// W is the live model vector; callers that retain weights must copy
	// (e.g. W.Floats()).
	W kernels.Vec
	// TrainLoss is the loss trajectory of this run so far (index 0 is
	// the loss before this run's first epoch — the resume-point loss
	// when StartEpoch > 0).
	TrainLoss []float64
}

// ctxCheckMask throttles the worker-loop context checks: the context is
// polled every 64 steps, keeping the bare-algorithm hot path free of
// per-step synchronization while bounding cancellation latency.
const ctxCheckMask = 63

// ctxErr returns the context's cause if ctx is cancelled, nil otherwise
// (including for a nil context).
func ctxErr(ctx context.Context) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	return context.Cause(ctx)
}

func (c *Config) fill() error {
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.MiniBatch < 1 {
		c.MiniBatch = 1
	}
	if c.Epochs < 1 {
		c.Epochs = 1
	}
	if c.StepSize <= 0 {
		return fmt.Errorf("core: StepSize must be positive")
	}
	if c.StepDecay == 0 {
		c.StepDecay = 1
	}
	if c.StepDecay < 0 || c.StepDecay > 1 {
		return fmt.Errorf("core: StepDecay must be in (0, 1]")
	}
	if c.ObstinateQ < 0 || c.ObstinateQ > 1 {
		return fmt.Errorf("core: ObstinateQ must be in [0, 1]")
	}
	if c.GradBits != 0 && (c.GradBits < 6 || c.GradBits > 32) {
		return fmt.Errorf("core: GradBits must be 0 (full) or in [6, 32]")
	}
	if c.Observer != nil && c.Observer.StepSample < 0 {
		return fmt.Errorf("core: Observer.StepSample must be non-negative")
	}
	if c.StartEpoch < 0 || c.StartEpoch > c.Epochs {
		return fmt.Errorf("core: StartEpoch %d outside [0, Epochs=%d]", c.StartEpoch, c.Epochs)
	}
	return nil
}

// workers is the number of goroutines an epoch — and the loss evaluation
// after it — fans out to: Threads, or one under Sequential sharing.
func (c *Config) workers() int {
	if c.Sharing == Sequential {
		return 1
	}
	return c.Threads
}

// gradFormat returns the fixed-point grid for gradient intermediates, or
// nil for full precision.
func (c *Config) gradFormat() *fixed.Format {
	if c.GradBits == 0 || c.GradBits >= 32 {
		return nil
	}
	f := fixed.Format{Bits: c.GradBits, Frac: c.GradBits - 5} // range [-16, 16)
	return &f
}

// Result reports a finished run.
type Result struct {
	// W is the final model, dequantized.
	W []float32
	// TrainLoss holds the full-precision training loss after each
	// epoch (index 0 is the loss before training).
	TrainLoss []float64
	// Steps counts model updates; Elapsed is wall time spent in
	// workers: the epochs' fan-outs, without the loss evaluations, the
	// observers and the EpochEnd callbacks between them.
	Steps   int
	Elapsed time.Duration
	// NumbersPerSec is the measured dataset throughput on the host over
	// Elapsed (meaningful for relative comparisons only; absolute
	// hardware efficiency comes from package machine).
	NumbersPerSec float64
	// Stats holds the run's observability counters; nil unless the
	// config installed an Observer.
	Stats *obs.RunStats
	// Series is the windowed training time-series; nil unless the
	// Observer installed a Series recorder.
	Series *obs.SeriesSnapshot
	// Cluster is the simulated-interconnect snapshot (exact wire bytes,
	// simulated time, update staleness); nil unless the run went through
	// the internal/cluster tier.
	Cluster *obs.ClusterStats
}

// Dataset is what Train accepts: a *dataset.DenseSet or a
// *dataset.SparseSet. The interface exists so both fit one entry point,
// not as an extension surface; a new example layout is a new case in
// kindOf.
type Dataset interface {
	// Len returns the number of examples.
	Len() int
	// Dim returns the model dimension.
	Dim() int
}

// Train runs Buckwild! SGD on a dense or a sparse (coordinate-form)
// dataset: one epoch loop, one worker fan-out and one step for both.
// Sparse Hogwild! is the setting the algorithm was originally designed
// for: updates touch few coordinates, so collisions between workers are
// rare and the races are especially benign.
func Train(cfg Config, ds Dataset) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	k, err := kindOf(ds)
	if err != nil {
		return nil, err
	}
	if k.stored != cfg.D {
		return nil, fmt.Errorf("core: dataset stored at %v but config says %v", k.stored, cfg.D)
	}
	if cfg.MiniBatch != 1 && k.rows == nil {
		return nil, fmt.Errorf("core: %s training supports MiniBatch=1 (got %d); the paper's mini-batch study is dense", k.name, cfg.MiniBatch)
	}
	w, err := initModel(&cfg, ds.Dim())
	if err != nil {
		return nil, err
	}
	res := &Result{}
	loss, err := k.loss(cfg.Problem, w.Floats(), cfg.workers())
	if err != nil {
		return nil, err
	}
	res.TrainLoss = append(res.TrainLoss, loss)

	eta := resumeEta(&cfg)
	ro := newRunObs(&cfg)
	trainSpan := ro.span("train-" + k.name)
	var epochSpan obs.SpanHandle // inert between epochs
	// A span records nothing until it ends, so a failed run ends the ones
	// still open — with the error — before returning it.
	fail := func(err error) (*Result, error) {
		args := map[string]string{"error": err.Error()}
		epochSpan.EndArgs(args)
		trainSpan.EndArgs(args)
		return nil, err
	}
	epochsRun := 0
	for epoch := cfg.StartEpoch; epoch < cfg.Epochs; epoch++ {
		if err := ctxErr(cfg.Ctx); err != nil {
			return fail(err)
		}
		epochSpan = ro.span("epoch")
		start := time.Now()
		steps, err := runEpoch(&cfg, k, w, eta, epoch, ro)
		res.Elapsed += time.Since(start)
		if err != nil {
			return fail(err)
		}
		res.Steps += steps
		epochsRun++
		eta *= cfg.StepDecay
		loss, err := k.loss(cfg.Problem, w.Floats(), cfg.workers())
		if err != nil {
			return fail(err)
		}
		res.TrainLoss = append(res.TrainLoss, loss)
		ro.observeWeights(epoch+1, w)
		ro.epochDone(epoch+1, loss)
		epochSpan.EndArgs(map[string]string{"epoch": fmt.Sprint(epoch + 1), "loss": fmt.Sprintf("%.6g", loss)})
		epochSpan = obs.SpanHandle{}
		if cfg.EpochEnd != nil {
			if err := cfg.EpochEnd(EpochState{Epoch: epoch + 1, Loss: loss, W: w, TrainLoss: res.TrainLoss}); err != nil {
				return fail(err)
			}
		}
	}
	res.W = w.Floats()
	if res.Elapsed > 0 {
		res.NumbersPerSec = float64(epochsRun) * k.numbers / res.Elapsed.Seconds()
	}
	trainSpan.EndArgs(map[string]string{"epochs": fmt.Sprint(epochsRun)})
	res.Stats = ro.snapshot()
	if ro != nil {
		res.Series = ro.series.Snapshot()
	}
	return res, nil
}

// initModel builds the run's model vector: zeros for a fresh run, or the
// re-quantized InitWeights for a resumed one.
func initModel(cfg *Config, n int) (kernels.Vec, error) {
	w := kernels.NewVec(cfg.M, n)
	if cfg.InitWeights == nil {
		return w, nil
	}
	if len(cfg.InitWeights) != n {
		return kernels.Vec{}, fmt.Errorf("core: InitWeights has %d elements, model needs %d", len(cfg.InitWeights), n)
	}
	if w.P == kernels.F32 {
		copy(w.F32, cfg.InitWeights)
		return w, nil
	}
	f := w.P.Fixed()
	for i, x := range cfg.InitWeights {
		w.SetRaw(i, f.QuantizeBiased(x))
	}
	return w, nil
}

// resumeEta replays the step-decay schedule over the epochs a previous
// run already completed.
func resumeEta(cfg *Config) float32 {
	eta := cfg.StepSize
	for i := 0; i < cfg.StartEpoch; i++ {
		eta *= cfg.StepDecay
	}
	return eta
}

// runEpoch processes every example once, spread over the workers, and
// returns the number of model updates that takes: a worker covers its
// shard in ceil(shard / MiniBatch) of them.
func runEpoch(cfg *Config, k *kind, w kernels.Vec, eta float32, epoch int, ro *runObs) (int, error) {
	threads := cfg.workers()
	var mu *sync.Mutex
	if cfg.Sharing == Locked {
		mu = new(sync.Mutex)
	}
	var wg sync.WaitGroup
	errs := make([]error, threads)
	steps := 0
	for t := 0; t < threads; t++ {
		wk, err := newWorker(cfg, k, ro, t, epoch)
		if err != nil {
			return 0, err
		}
		wk.w, wk.eta, wk.mu = w, eta, mu
		lo := t * k.len / threads
		hi := (t + 1) * k.len / threads
		steps += (hi - lo + cfg.MiniBatch - 1) / cfg.MiniBatch
		run := func() {
			defer wg.Done()
			errs[t] = wk.run(lo, hi)
		}
		wg.Add(1)
		if cfg.Sharing == Sequential {
			run()
		} else {
			go run()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return steps, nil
}

// worker is one worker's state for one epoch: its kernel over the examples,
// its PRNG streams — keyed by (Seed, worker, epoch), which is what makes a
// resume at an epoch boundary replay an uninterrupted run — and its scratch.
// Everything a model update does between reading the model and writing it
// lives in step and batchStep, so that is where a new update rule plugs in.
type worker struct {
	cfg *Config
	// w is the shared model and eta the epoch's step size.
	w   kernels.Vec
	eta float32
	k   kernel
	// q rounds model writes (nil for float models); k writes through it.
	q *kernels.Quantizer
	y []float32
	// order drives the obstinate-cache emulation's refresh decisions.
	order *prng.Xorshift64
	// id and epoch locate the worker for observability; ro is the run's
	// shared observability state (nil when no Observer is installed).
	id    int
	epoch int
	ro    *runObs
	// mu serializes steps under Locked sharing; nil otherwise.
	mu *sync.Mutex
	// snapshot is the worker's stale view of the model when the
	// obstinate-cache emulation is active (ObstinateQ > 0).
	snapshot kernels.Vec
	// gradFmt quantizes gradient intermediates (nil = full precision).
	gradFmt *fixed.Format
	// nc is the worker's numerical-health counter block (nil when health
	// collection is off); the same block is shared with the kernel and
	// its quantizer.
	nc *fixed.NumCounts
	// rows and scratch serve the mini-batch accumulate (dense only).
	rows    []kernels.Vec
	scratch []float32
}

func newWorker(cfg *Config, k *kind, ro *runObs, id, epoch int) (*worker, error) {
	nc := ro.numCounts(id)
	var q *kernels.Quantizer
	if cfg.M != kernels.F32 {
		var err error
		q, err = kernels.NewQuantizer(cfg.M, cfg.Quant, cfg.QuantPeriod,
			cfg.Seed^uint64(id)*0x9E3779B9+uint64(epoch)|1)
		if err != nil {
			return nil, err
		}
		q.Num = nc
	}
	kern, err := k.newKernel(cfg, q, nc)
	if err != nil {
		return nil, err
	}
	return &worker{cfg: cfg, k: kern, q: q, y: k.y, rows: k.rows, gradFmt: cfg.gradFormat(),
		id: id, epoch: epoch, ro: ro, nc: nc,
		order: prng.NewXorshift64(cfg.Seed ^ (uint64(id)+1)*0x51ED2701 ^ uint64(epoch))}, nil
}

// quantGrad rounds a gradient intermediate onto the G grid, counting a
// nonzero value that quantizes to zero as an underflow when health
// collection is on.
func (wk *worker) quantGrad(v float32) float32 {
	if wk.gradFmt == nil {
		return v
	}
	q := wk.gradFmt.QuantizeBiased(v)
	if wk.nc != nil && q == 0 && v != 0 {
		wk.nc.Underflows++
	}
	return wk.gradFmt.Dequantize(q)
}

// run processes examples [lo, hi) in mini-batches.
func (wk *worker) run(lo, hi int) error {
	b := wk.cfg.MiniBatch
	var stepsBefore uint64
	if wk.ro != nil {
		stepsBefore = wk.ro.shards[wk.id].steps
	}
	var steps uint64
	for i := lo; i < hi; i += b {
		if wk.cfg.Ctx != nil && steps&ctxCheckMask == 0 {
			if err := ctxErr(wk.cfg.Ctx); err != nil {
				return err
			}
		}
		steps++
		if wk.mu != nil {
			if wk.ro != nil {
				wk.ro.lock(wk.id, wk.mu)
			} else {
				wk.mu.Lock()
			}
		}
		if b == 1 {
			wk.step(i)
		} else {
			wk.batchStep(i, min(i+b, hi))
		}
		if wk.mu != nil {
			wk.mu.Unlock()
		}
	}
	if wk.ro != nil {
		wk.ro.workerDone(wk.id, wk.epoch, stepsBefore)
	}
	return nil
}

// step performs one single-example update: dot, scalar glue, AXPY.
func (wk *worker) step(i int) {
	var readClock uint64
	var sampled bool
	if wk.ro != nil {
		readClock, sampled = wk.ro.stepBegin(wk.id)
	}
	view := &wk.w
	if wk.cfg.ObstinateQ > 0 {
		view = wk.obstinateView()
	}
	d := wk.quantGrad(wk.k.dot(i, view))
	a := wk.quantGrad(GradScale(wk.cfg.Problem, d, wk.y[i], wk.eta))
	wrote := a != 0
	if wrote {
		wk.k.axpy(a, i, &wk.w)
		if view != &wk.w {
			// The worker's own writes land in its cached copy.
			wk.k.axpy(a, i, view)
		}
	}
	if wk.ro != nil {
		wk.ro.stepEnd(wk.id, wk.epoch, readClock, sampled, wrote, a)
	}
}

// obstinateView returns the model view for this step: with probability
// 1-q the snapshot is refreshed from the shared model (the invalidate was
// honoured); otherwise the stale snapshot is used as-is.
func (wk *worker) obstinateView() *kernels.Vec {
	if wk.snapshot.Len() == 0 {
		wk.snapshot = wk.w.Clone()
		return &wk.snapshot
	}
	u := float64(wk.order.Uint32()>>8) * (1.0 / (1 << 24))
	if u >= wk.cfg.ObstinateQ {
		copyVec(wk.snapshot, wk.w)
	}
	return &wk.snapshot
}

// copyVec copies src's storage into dst (same precision and length).
func copyVec(dst, src kernels.Vec) {
	switch src.P {
	case kernels.F32:
		copy(dst.F32, src.F32)
	case kernels.I16:
		copy(dst.I16, src.I16)
	default:
		copy(dst.I8, src.I8)
	}
}

// batchStep accumulates B gradients at full precision and writes the model
// once (Section 5.4: the model is written less frequently, so cache lines
// are invalidated correspondingly less frequently).
func (wk *worker) batchStep(lo, hi int) {
	w := wk.w
	var readClock uint64
	var sampled bool
	if wk.ro != nil {
		readClock, sampled = wk.ro.stepBegin(wk.id)
	}
	if wk.scratch == nil {
		wk.scratch = make([]float32, w.Len())
	}
	g := wk.scratch
	for j := range g {
		g[j] = 0
	}
	any := false
	var gradAbs float32
	for i := lo; i < hi; i++ {
		d := wk.quantGrad(wk.k.dot(i, &wk.w))
		a := wk.quantGrad(GradScale(wk.cfg.Problem, d, wk.y[i], wk.eta) / float32(hi-lo))
		if a == 0 {
			continue
		}
		any = true
		if a < 0 {
			gradAbs -= a
		} else {
			gradAbs += a
		}
		x := wk.rows[i]
		for j := 0; j < x.Len(); j++ {
			g[j] += a * x.At(j)
		}
	}
	if any {
		for j := range g {
			if g[j] != 0 || w.P == kernels.F32 {
				w.Set(j, w.At(j)+g[j], wk.q)
			}
		}
	}
	if wk.ro != nil {
		if any {
			wk.ro.shards[wk.id].batchFlushes++
		}
		wk.ro.stepEnd(wk.id, wk.epoch, readClock, sampled, any, gradAbs)
	}
}

// GradScale returns the AXPY scalar a such that the SGD update is
// w <- w + a*x. It is exported for the engines layered on top of the
// per-step kernels (the synchronous C-term engine here and the cluster
// tier in internal/cluster), so every engine shares one gradient rule.
func GradScale(p Problem, dot, y, eta float32) float32 {
	switch p {
	case Logistic:
		// -grad = y * sigmoid(-y (w.x)) * x
		return eta * y * sigmoid(-y*dot)
	case Linear:
		return eta * (y - dot)
	default: // SVM
		if y*dot < 1 {
			return eta * y
		}
		return 0
	}
}

func sigmoid(z float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(z))))
}
