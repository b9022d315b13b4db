package core

import (
	"testing"

	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
)

// (The TestHooks name prefix keeps these in CI's race-enabled core
// filter alongside the other observability tests.)

func telemetryDense(t *testing.T) *dataset.DenseSet {
	t.Helper()
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 32, M: 150, P: kernels.I8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestHooksTraceDeterminism runs the same seeded Sequential training
// twice with a tracer installed and asserts the traces agree span for
// span: same count, same (category, name, track) sequence. Durations
// differ — wall clock isn't deterministic — but what the engine did is.
func TestHooksTraceDeterminism(t *testing.T) {
	ds := telemetryDense(t)
	runOnce := func() (obs.TraceSnapshot, uint64) {
		tr := obs.NewTracer(256)
		cfg := denseObsConfig(1, Sequential, nil, 0)
		cfg.Observer = &obs.Observer{Tracer: tr}
		if _, err := Train(cfg, ds); err != nil {
			t.Fatal(err)
		}
		return tr.Snapshot(), tr.SpanCount()
	}
	snapA, countA := runOnce()
	snapB, countB := runOnce()
	if countA != countB {
		t.Fatalf("span counts differ across identical runs: %d vs %d", countA, countB)
	}
	if countA == 0 {
		t.Fatal("no spans recorded")
	}
	if len(snapA.Spans) != len(snapB.Spans) {
		t.Fatalf("retained spans differ: %d vs %d", len(snapA.Spans), len(snapB.Spans))
	}
	for i := range snapA.Spans {
		a, b := snapA.Spans[i], snapB.Spans[i]
		if a.Cat != b.Cat || a.Name != b.Name || a.TID != b.TID {
			t.Fatalf("span %d differs: %s/%s@%d vs %s/%s@%d", i, a.Cat, a.Name, a.TID, b.Cat, b.Name, b.TID)
		}
	}
	// 2 epochs + the enclosing train span.
	if want := uint64(3); countA != want {
		t.Errorf("span count %d, want %d (2 epoch spans + train-dense)", countA, want)
	}
}

// TestHooksSeriesOnResult checks that installing a Series surfaces a
// snapshot on the result whose totals match the engine's own counters.
func TestHooksSeriesOnResult(t *testing.T) {
	ds := telemetryDense(t)
	se := obs.NewSeries(8)
	cfg := denseObsConfig(1, Sequential, nil, 1)
	cfg.Observer = &obs.Observer{Series: se, StepSample: 1}
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series == nil {
		t.Fatal("Result.Series is nil with a Series installed")
	}
	if got, want := len(res.Series.Windows), cfg.Epochs; got != want {
		t.Fatalf("%d windows, want %d (stride 1, one per epoch)", got, want)
	}
	var steps, samples uint64
	for _, w := range res.Series.Windows {
		steps += w.Steps
		samples += w.Staleness.Count
	}
	if want := uint64(cfg.Epochs * ds.Len()); steps != want {
		t.Errorf("series steps %d, want %d", steps, want)
	}
	if samples != steps {
		t.Errorf("series staleness samples %d, want %d (StepSample=1)", samples, steps)
	}
	if got, want := res.Series.Final().Loss, res.TrainLoss[len(res.TrainLoss)-1]; got != want {
		t.Errorf("final window loss %g, want %g", got, want)
	}
	// No observer: no series, the established nil fast path.
	cfg.Observer = nil
	res, err = Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series != nil {
		t.Error("Result.Series should be nil without an Observer")
	}
}
