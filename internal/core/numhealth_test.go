package core

import (
	"context"
	"errors"
	"testing"

	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
)

// TestHooksHealthWatchdogTripsQ4 runs a seeded 4-bit model with an
// oversized step — the update magnitudes saturate the tiny format on
// nearly every write — under a HealthWatchdog, and checks the whole
// divergence path: the watchdog fires, the
// run's context is cancelled with the detailed cause, and Train
// returns an error matching obs.ErrDivergence. The TestHooks prefix keeps
// it in the race-enabled CI filter.
func TestHooksHealthWatchdogTripsQ4(t *testing.T) {
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 32, M: 400, P: kernels.I8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	wd := &obs.HealthWatchdog{Cancel: cancel}
	cfg := Config{
		Problem: Logistic, D: kernels.I8, M: kernels.I4,
		Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
		Threads: 1, StepSize: 2.0, Epochs: 8,
		Sharing: Sequential, Seed: 7,
		Ctx:      ctx,
		Observer: &obs.Observer{Hooks: wd, NumHealth: true},
	}
	_, err = Train(cfg, ds)
	if err == nil {
		t.Fatal("saturating Q4 run completed without tripping the watchdog")
	}
	if !errors.Is(err, obs.ErrDivergence) {
		t.Fatalf("error %v does not match obs.ErrDivergence", err)
	}
	var de *obs.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("error %v carries no DivergenceError detail", err)
	}
	if de.Info.SatRate <= 0.5 {
		t.Errorf("divergence detail reports sat rate %v, want > threshold", de.Info.SatRate)
	}
	if cause := context.Cause(ctx); !errors.Is(cause, obs.ErrDivergence) {
		t.Errorf("run context cause %v, want the watchdog's divergence", cause)
	}
}

// TestHooksNumStatsOnResult checks that enabling NumHealth populates
// Result.Stats.NumHealth for the async engine, and that the counters are
// plausible for a quantized run (every model write is a bias sample).
func TestHooksNumStatsOnResult(t *testing.T) {
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 32, M: 300, P: kernels.I8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Problem: Logistic, D: kernels.I8, M: kernels.I8,
		Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
		Threads: 2, StepSize: 0.05, Epochs: 2,
		Sharing: Locked, Seed: 11,
		Observer: &obs.Observer{NumHealth: true},
	}
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.NumHealth == nil {
		t.Fatal("NumStats not exposed on the result with NumHealth enabled")
	}
	ns := res.Stats.NumHealth
	if ns.Bias.Samples == 0 {
		t.Error("quantized run measured no rounding-bias samples")
	}
	if ns.Bias.Mode == "" {
		t.Error("bias mode not recorded")
	}
	if ns.Weights == nil || ns.Weights.Count == 0 {
		t.Error("weight distribution not collected")
	}
	// Without the flag the collection stays off and the result is nil.
	cfg.Observer = &obs.Observer{}
	res, err = Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NumHealth != nil {
		t.Error("NumStats collected without NumHealth")
	}
}
