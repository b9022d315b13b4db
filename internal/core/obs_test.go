package core

import (
	"sync/atomic"
	"testing"

	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
)

// countingHooks counts invocations with atomics so it is safe under
// concurrent workers (and clean under -race).
type countingHooks struct {
	obs.NopHooks
	epochs  atomic.Uint64
	steps   atomic.Uint64
	workers atomic.Uint64
	// lastEpochSteps records the cumulative step count reported by the
	// final OnEpoch.
	lastEpochSteps atomic.Uint64
	maxStaleness   atomic.Uint64
}

func (h *countingHooks) OnEpoch(e obs.EpochInfo) {
	h.epochs.Add(1)
	h.lastEpochSteps.Store(e.Steps)
}

func (h *countingHooks) OnStep(s obs.StepInfo) {
	h.steps.Add(1)
	for {
		m := h.maxStaleness.Load()
		if s.Staleness <= m || h.maxStaleness.CompareAndSwap(m, s.Staleness) {
			return
		}
	}
}

func (h *countingHooks) OnWorker(obs.WorkerInfo) { h.workers.Add(1) }

func denseObsConfig(threads int, sharing Sharing, hooks obs.Hooks, sample int) Config {
	return Config{
		Problem: Logistic, D: kernels.I8, M: kernels.I8,
		Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
		Threads: threads, StepSize: 0.05, Epochs: 2,
		Sharing: sharing, Seed: 7,
		Observer: &obs.Observer{Hooks: hooks, StepSample: sample},
	}
}

func TestHooksSequentialDense(t *testing.T) {
	const m = 200
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 32, M: m, P: kernels.I8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := &countingHooks{}
	res, err := Train(denseObsConfig(1, Sequential, h, 1), ds)
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := uint64(2 * m)
	if got := h.epochs.Load(); got != 2 {
		t.Errorf("OnEpoch fired %d times, want 2", got)
	}
	if got := h.workers.Load(); got != 2 {
		t.Errorf("OnWorker fired %d times, want 2 (1 worker x 2 epochs)", got)
	}
	if got := h.steps.Load(); got != wantSteps {
		t.Errorf("OnStep fired %d times, want %d (StepSample=1)", got, wantSteps)
	}
	if res.Stats == nil {
		t.Fatal("Result.Stats is nil with an Observer installed")
	}
	if res.Stats.Steps != wantSteps || h.lastEpochSteps.Load() != wantSteps {
		t.Errorf("steps: stats=%d hook=%d want %d", res.Stats.Steps, h.lastEpochSteps.Load(), wantSteps)
	}
	// A single sequential worker can never observe remote writes.
	if h.maxStaleness.Load() != 0 || res.Stats.Staleness.Max != 0 {
		t.Errorf("sequential staleness: hook=%d hist=%d, want 0",
			h.maxStaleness.Load(), res.Stats.Staleness.Max)
	}
	if res.Stats.MutexWaits != 0 {
		t.Errorf("sequential run counted %d mutex waits", res.Stats.MutexWaits)
	}
	if got := res.Stats.ModelWrites["unbiased-shared"]; got == 0 || got > wantSteps {
		t.Errorf("model writes by kind = %v", res.Stats.ModelWrites)
	}
}

func TestHooksLockedDense(t *testing.T) {
	const m, threads = 400, 4
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 32, M: m, P: kernels.I8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := &countingHooks{}
	res, err := Train(denseObsConfig(threads, Locked, h, 1), ds)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.workers.Load(); got != threads*2 {
		t.Errorf("OnWorker fired %d times, want %d", got, threads*2)
	}
	if res.Stats.Steps != 2*m {
		t.Errorf("steps = %d, want %d", res.Stats.Steps, 2*m)
	}
	if got := h.steps.Load(); got != 2*m {
		t.Errorf("OnStep fired %d times, want %d", got, 2*m)
	}
	if res.Stats.SampledSteps != 2*m {
		t.Errorf("sampled = %d, want %d", res.Stats.SampledSteps, 2*m)
	}
}

// diagonalSparseSet builds a sparse dataset where example i touches only
// coordinate i. Contiguous worker ranges then update disjoint model
// words, so even Racy sharing has no data races and the test runs clean
// under -race while genuinely exercising concurrent hook delivery.
func diagonalSparseSet(n int) *dataset.SparseSet {
	ds := &dataset.SparseSet{N: n, IdxBits: 16}
	for i := 0; i < n; i++ {
		v := kernels.NewVec(kernels.F32, 1)
		v.F32[0] = 1
		ds.Idx = append(ds.Idx, []int32{int32(i)})
		ds.Val = append(ds.Val, v)
		ds.RawVal = append(ds.RawVal, []float32{1})
		y := float32(1)
		if i%2 == 0 {
			y = -1
		}
		ds.Y = append(ds.Y, y)
		ds.TrueW = append(ds.TrueW, y)
	}
	return ds
}

func TestHooksRacySparseDisjoint(t *testing.T) {
	const n, threads = 256, 4
	ds := diagonalSparseSet(n)
	h := &countingHooks{}
	cfg := Config{
		Problem: Logistic, D: kernels.F32, M: kernels.F32,
		Variant: kernels.HandOpt,
		Threads: threads, StepSize: 0.5, Epochs: 3,
		Sharing: Racy, Seed: 11,
		Observer: &obs.Observer{Hooks: h, StepSample: 1},
	}
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := uint64(3 * n)
	if res.Stats.Steps != wantSteps {
		t.Errorf("steps = %d, want %d", res.Stats.Steps, wantSteps)
	}
	if got := h.steps.Load(); got != wantSteps {
		t.Errorf("OnStep fired %d times, want %d", got, wantSteps)
	}
	if got := h.workers.Load(); got != threads*3 {
		t.Errorf("OnWorker fired %d times, want %d", got, threads*3)
	}
	if got := h.epochs.Load(); got != 3 {
		t.Errorf("OnEpoch fired %d times, want 3", got)
	}
	// The logistic gradient never vanishes, so every step writes.
	if got := res.Stats.ModelWrites["full-precision"]; got != wantSteps {
		t.Errorf("model writes = %v, want %d", res.Stats.ModelWrites, wantSteps)
	}
	if res.Stats.Staleness.Count != wantSteps {
		t.Errorf("staleness samples = %d, want %d", res.Stats.Staleness.Count, wantSteps)
	}
	if res.Stats.MutexWaits != 0 {
		t.Errorf("racy run counted %d mutex waits", res.Stats.MutexWaits)
	}
}

func TestHooksSamplingAndBatchFlushes(t *testing.T) {
	const m, batch = 256, 4
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 32, M: m, P: kernels.I8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Problem: Logistic, D: kernels.I8, M: kernels.I8,
		Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
		Threads: 1, MiniBatch: batch, StepSize: 0.05, Epochs: 1,
		Sharing: Sequential, Seed: 4,
		Observer: &obs.Observer{StepSample: 8},
	}
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := uint64(m / batch)
	if res.Stats.Steps != wantSteps {
		t.Errorf("steps = %d, want %d", res.Stats.Steps, wantSteps)
	}
	if res.Stats.BatchFlushes != wantSteps {
		t.Errorf("batch flushes = %d, want %d (logistic always writes)",
			res.Stats.BatchFlushes, wantSteps)
	}
	if want := wantSteps / 8; res.Stats.SampledSteps != want {
		t.Errorf("sampled = %d, want %d (period 8)", res.Stats.SampledSteps, want)
	}
}

func TestHooksDisabledByDefault(t *testing.T) {
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 16, M: 64, P: kernels.I8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Problem: Logistic, D: kernels.I8, M: kernels.I8,
		Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
		Threads: 1, StepSize: 0.05, Epochs: 1, Sharing: Sequential, Seed: 6,
	}
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != nil {
		t.Error("Result.Stats should be nil without an Observer")
	}
	cfg.Observer = &obs.Observer{StepSample: -1}
	if _, err := Train(cfg, ds); err == nil {
		t.Error("negative StepSample should fail validation")
	}
}
