package core_test

import (
	"math"
	"testing"

	"buckwild/internal/cluster"
	"buckwild/internal/core"
	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
)

// epochRecorder keeps every epoch a run reports.
type epochRecorder struct {
	obs.NopHooks
	epochs []obs.EpochInfo
}

func (r *epochRecorder) OnEpoch(ei obs.EpochInfo) { r.epochs = append(r.epochs, ei) }

// TestHooksEpochCarriesHealth checks the epoch as the one carrier of
// numerical health: every epoch of a NumHealth run carries Health, the
// last one's counters are the run's NumStats, and a run without
// NumHealth or on the cluster tier carries none. No watchdog is
// installed, so no epoch carries a Divergence. The 4-bit model's large
// step pins weights at the format bounds, so every compared counter is
// nonzero. The test lives outside package core so it can drive the
// cluster tier, which imports core.
func TestHooksEpochCarriesHealth(t *testing.T) {
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 32, M: 300, P: kernels.I8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 3
	train := func(numHealth bool) ([]obs.EpochInfo, *core.Result) {
		rec := &epochRecorder{}
		res, err := core.Train(core.Config{
			Problem: core.Logistic, D: kernels.I8, M: kernels.I4,
			Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
			Threads: 2, StepSize: 0.5, Epochs: epochs,
			Sharing: core.Locked, Seed: 11,
			Observer: &obs.Observer{Hooks: rec, NumHealth: numHealth},
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.epochs) != epochs {
			t.Fatalf("%d epochs reported, want %d", len(rec.epochs), epochs)
		}
		for _, ei := range rec.epochs {
			if ei.Divergence != nil {
				t.Errorf("epoch %d carries a divergence without a watchdog", ei.Epoch)
			}
		}
		return rec.epochs, res
	}

	got, res := train(true)
	for _, ei := range got {
		if ei.Health == nil {
			t.Fatalf("epoch %d of a NumHealth run carries no health", ei.Epoch)
		}
	}
	last, ns := got[epochs-1].Health, res.Stats.NumHealth
	if ns == nil || ns.Weights == nil {
		t.Fatal("NumHealth run has no NumStats with weights")
	}
	if last.Saturations != ns.Saturations || last.Underflows != ns.Underflows ||
		last.BiasSamples != ns.Bias.Samples ||
		math.Float64bits(last.BiasSumQuanta) != math.Float64bits(ns.Bias.SumQuanta) ||
		last.WeightsAtBounds != ns.Weights.AtBounds {
		t.Errorf("last epoch's health %+v differs from the run's NumStats %+v (weights %+v)", *last, *ns, *ns.Weights)
	}
	if last.ModelWrites == 0 || last.BiasSamples == 0 || last.WeightsAtBounds == 0 {
		t.Errorf("quantized run's last epoch counted nothing: %+v", *last)
	}

	got, _ = train(false)
	for _, ei := range got {
		if ei.Health != nil {
			t.Errorf("epoch %d carries health without NumHealth", ei.Epoch)
		}
	}

	fds, err := dataset.GenDense(dataset.DenseConfig{N: 32, M: 256, P: kernels.F32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := &epochRecorder{}
	if _, err := cluster.Train(cluster.Config{
		Problem: core.Logistic, Nodes: 2, Protocol: cluster.ParamServer, WireBits: 8,
		StepSize: 0.1, Epochs: 2, Seed: 1,
		Observer: &obs.Observer{Hooks: rec, NumHealth: true},
	}, fds); err != nil {
		t.Fatal(err)
	}
	if len(rec.epochs) != 2 {
		t.Fatalf("cluster run reported %d epochs, want 2", len(rec.epochs))
	}
	for _, ei := range rec.epochs {
		if ei.Health != nil || ei.Divergence != nil {
			t.Errorf("cluster epoch %d carries health %v, divergence %v", ei.Epoch, ei.Health, ei.Divergence)
		}
	}
}
