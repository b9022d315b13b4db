package obs

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestNumStatsMerge(t *testing.T) {
	a := &NumStats{
		SatBySite:   map[string]uint64{"saturate": 3},
		Saturations: 3,
		Underflows:  10,
		Bias:        RoundingBias{Mode: "unbiased-shared", Samples: 4, SumQuanta: 1},
		Weights:     &WeightStats{Epoch: 1, Count: 2, Min: -1, Max: 1, Mean: 0, AtBounds: 1},
	}
	b := &NumStats{
		SatBySite:   map[string]uint64{"saturate": 1, "quantize": 5},
		Saturations: 6,
		Underflows:  2,
		Bias:        RoundingBias{Mode: "biased", Samples: 4, SumQuanta: -3},
		Weights:     &WeightStats{Epoch: 2, Count: 2, Min: -2, Max: 0.5, Mean: -0.75, AtBounds: 2},
	}
	a.Merge(b)
	a.Merge(nil) // no-op
	if a.SatBySite["saturate"] != 4 || a.SatBySite["quantize"] != 5 {
		t.Errorf("merged sites: %v", a.SatBySite)
	}
	if a.Saturations != 9 || a.Underflows != 12 {
		t.Errorf("merged totals: %+v", a)
	}
	if a.Bias.Mode != "unbiased-shared" || a.Bias.Samples != 8 || a.Bias.SumQuanta != -2 {
		t.Errorf("merged bias: %+v", a.Bias)
	}
	if got := a.Bias.MeanQuanta(); got != -0.25 {
		t.Errorf("MeanQuanta = %v, want -0.25", got)
	}
	w := a.Weights
	if w.Epoch != 2 || w.Count != 4 || w.Min != -2 || w.Max != 1 || w.AtBounds != 3 {
		t.Errorf("merged weights: %+v", w)
	}
	if math.Abs(w.Mean-(-0.375)) > 1e-12 {
		t.Errorf("merged weight mean %v, want -0.375", w.Mean)
	}

	// Merging weights into a run that had none allocates them.
	c := &NumStats{}
	c.Merge(b)
	if c.Weights == nil || c.Weights.Count != 2 {
		t.Errorf("merge into empty: %+v", c.Weights)
	}
}

func TestHealthInfoRates(t *testing.T) {
	hi := HealthInfo{ModelWrites: 100, Saturations: 25, BiasSamples: 4, BiasSumQuanta: -1}
	if got := hi.SatRate(); got != 0.25 {
		t.Errorf("SatRate = %v, want 0.25", got)
	}
	if got := hi.BiasMeanQuanta(); got != -0.25 {
		t.Errorf("BiasMeanQuanta = %v, want -0.25", got)
	}
	var zero HealthInfo
	if zero.SatRate() != 0 || zero.BiasMeanQuanta() != 0 {
		t.Error("zero HealthInfo rates should be 0")
	}
}

// recordingHooks captures every callback kind the watchdog can forward.
type recordingHooks struct {
	NopHooks
	epochs      []EpochInfo
	divergences []DivergenceInfo
	checkpoints int
	retries     int
	// ctx, when set, is the run context; cancelledFirst records whether
	// it was already cancelled when a divergence reached the hooks.
	ctx            context.Context
	cancelledFirst bool
}

func (r *recordingHooks) OnEpoch(ei EpochInfo) {
	r.epochs = append(r.epochs, ei)
	if ei.Divergence != nil {
		r.divergences = append(r.divergences, *ei.Divergence)
		r.cancelledFirst = r.ctx != nil && r.ctx.Err() != nil
	}
}
func (r *recordingHooks) OnCheckpoint(CheckpointInfo) { r.checkpoints++ }
func (r *recordingHooks) OnRetry(RetryInfo)           { r.retries++ }

func TestHealthWatchdogNaNLoss(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	rec := &recordingHooks{ctx: ctx}
	wd := &HealthWatchdog{Cancel: cancel, Next: rec}
	wd.OnEpoch(EpochInfo{Epoch: 1, Loss: 0.5})
	if wd.fired.Load() || ctx.Err() != nil {
		t.Fatal("watchdog fired on a finite loss")
	}
	wd.OnEpoch(EpochInfo{Epoch: 2, Loss: math.NaN()})
	if !wd.fired.Load() {
		t.Fatal("watchdog did not fire on NaN loss")
	}
	if ctx.Err() == nil {
		t.Fatal("context not cancelled")
	}
	cause := context.Cause(ctx)
	if !errors.Is(cause, ErrDivergence) {
		t.Fatalf("cause %v does not match ErrDivergence", cause)
	}
	var de *DivergenceError
	if !errors.As(cause, &de) || de.Info.Epoch != 2 {
		t.Fatalf("cause %v is not the detailed DivergenceError", cause)
	}
	// Forwarding: both epochs reached the wrapped hooks, the second
	// carrying the divergence before the context was cancelled.
	if len(rec.epochs) != 2 || len(rec.divergences) != 1 || rec.epochs[1].Divergence == nil {
		t.Fatalf("forwarding: epochs %v, divergences %v", rec.epochs, rec.divergences)
	}
	if rec.cancelledFirst {
		t.Error("context cancelled before the tripping epoch was forwarded")
	}
	// Firing is once-only even if another NaN epoch arrives.
	wd.OnEpoch(EpochInfo{Epoch: 3, Loss: math.Inf(1)})
	if len(rec.epochs) != 3 || len(rec.divergences) != 1 {
		t.Fatal("watchdog fired twice")
	}
}

func TestHealthWatchdogSatRate(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	rec := &recordingHooks{ctx: ctx}
	wd := &HealthWatchdog{Cancel: cancel, Next: rec}
	// Epoch 1, low rate: no trip; forwarded with its health.
	wd.OnEpoch(EpochInfo{Epoch: 1, Health: &HealthInfo{ModelWrites: 200, Saturations: 10}})
	// Epoch 2, rate exactly 0.5: the threshold is strict.
	wd.OnEpoch(EpochInfo{Epoch: 2, Health: &HealthInfo{ModelWrites: 300, Saturations: 150}})
	if wd.fired.Load() {
		t.Fatal("watchdog tripped at or below the threshold")
	}
	// Epoch 3, rate 0.6 > 0.5: trip.
	wd.OnEpoch(EpochInfo{Epoch: 3, Loss: 0.25, Health: &HealthInfo{ModelWrites: 400, Saturations: 240}})
	if !wd.fired.Load() {
		t.Fatal("watchdog did not trip on saturation rate")
	}
	if !errors.Is(context.Cause(ctx), ErrDivergence) {
		t.Fatalf("cause = %v", context.Cause(ctx))
	}
	if len(rec.epochs) != 3 || rec.epochs[0].Health == nil || rec.epochs[0].Health.Saturations != 10 {
		t.Fatalf("epoch forwarding: %+v", rec.epochs)
	}
	want := DivergenceInfo{Epoch: 3, Loss: 0.25, SatRate: 0.6}
	if len(rec.divergences) != 1 || rec.divergences[0].Epoch != want.Epoch ||
		rec.divergences[0].Loss != want.Loss || rec.divergences[0].SatRate != want.SatRate {
		t.Fatalf("divergence payload: %+v, want %+v", rec.divergences, want)
	}
	if rec.cancelledFirst {
		t.Error("context cancelled before the tripping epoch was forwarded")
	}
}

func TestHealthWatchdogBiasDrift(t *testing.T) {
	_, cancel := context.WithCancelCause(context.Background())
	wd := &HealthWatchdog{Cancel: cancel}
	// The threshold is 0.25 quanta; drift of -0.4 trips.
	wd.OnEpoch(EpochInfo{Epoch: 1, Health: &HealthInfo{ModelWrites: 10, BiasSamples: 100, BiasSumQuanta: -40}})
	if !wd.fired.Load() {
		t.Fatal("watchdog did not trip on bias drift")
	}
}

func TestHealthWatchdogForwardsLifecycle(t *testing.T) {
	rec := &recordingHooks{}
	wd := &HealthWatchdog{Next: rec}
	var h Hooks = wd
	h.OnCheckpoint(CheckpointInfo{Epoch: 1})
	h.OnRetry(RetryInfo{Attempt: 1})
	if rec.checkpoints != 1 || rec.retries != 1 {
		t.Fatalf("forwarding: %d checkpoints, %d retries", rec.checkpoints, rec.retries)
	}
	// A watchdog with no Cancel and no Next must not panic.
	bare := &HealthWatchdog{}
	bare.OnCheckpoint(CheckpointInfo{Epoch: 1})
	bare.OnRetry(RetryInfo{Attempt: 1})
	bare.OnEpoch(EpochInfo{Epoch: 1, Health: &HealthInfo{}})
	bare.OnEpoch(EpochInfo{Epoch: 2, Loss: math.NaN()})
	if !bare.fired.Load() {
		t.Fatal("bare watchdog did not record the detection")
	}
}

func TestHistQuantile(t *testing.T) {
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	var h Histogram
	// 90 zeros and 10 values in [8, 16): p50 exact at 0, p99 inside the
	// high bucket, p1.0 capped at Max.
	for i := 0; i < 90; i++ {
		h.Observe(0)
	}
	for i := 0; i < 10; i++ {
		h.Observe(uint64(8 + i))
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("p50 = %v, want 0 (zero bucket is exact)", got)
	}
	p99 := s.Quantile(0.99)
	if p99 < 8 || p99 > 18 {
		t.Errorf("p99 = %v, want within the [8,16) bucket (capped at max+1)", p99)
	}
	if got := s.Quantile(1); got < 8 || got > float64(s.Max)+1 {
		t.Errorf("p100 = %v out of range (max %d)", got, s.Max)
	}
	if got := s.Quantile(-1); got != 0 {
		t.Errorf("clamped p<0 = %v, want 0", got)
	}
	// Monotonicity across p.
	prev := -1.0
	for p := 0.0; p <= 1.0; p += 0.05 {
		q := s.Quantile(p)
		if q < prev {
			t.Fatalf("Quantile not monotone: p=%.2f -> %v after %v", p, q, prev)
		}
		prev = q
	}
}
