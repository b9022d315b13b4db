package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
)

func ctxTestConfig(epochs int) Config {
	return Config{
		Problem: Logistic, D: kernels.I8, M: kernels.I8,
		StepSize: 0.2, StepDecay: 0.9, Epochs: epochs,
		Sharing: Sequential, Seed: 17,
	}
}

func ctxTestSet(t *testing.T) *dataset.DenseSet {
	t.Helper()
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 16, M: 100, P: kernels.I8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestTrainDenseCtxPreCancelled(t *testing.T) {
	ds := ctxTestSet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := ctxTestConfig(3)
	cfg.Ctx = ctx
	if _, err := Train(cfg, ds); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestTrainDenseCtxCustomCause(t *testing.T) {
	ds := ctxTestSet(t)
	cause := fmt.Errorf("the supervisor says stop")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	cfg := ctxTestConfig(3)
	cfg.Ctx = ctx
	if _, err := Train(cfg, ds); !errors.Is(err, cause) {
		t.Fatalf("got %v, want the cancellation cause", err)
	}
}

func TestTrainSparseCtxPreCancelled(t *testing.T) {
	ds, err := dataset.GenSparse(dataset.SparseConfig{N: 64, M: 80, Density: 0.1, P: kernels.I8, IdxBits: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := ctxTestConfig(3)
	cfg.Ctx = ctx
	if _, err := Train(cfg, ds); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestTrainSyncCtxPreCancelled(t *testing.T) {
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 16, M: 100, P: kernels.F32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = TrainSyncDense(SyncConfig{
		Problem: Logistic, CommBits: 8, Workers: 2,
		StepSize: 0.1, Epochs: 3, Ctx: ctx,
	}, ds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestStartEpochValidation(t *testing.T) {
	ds := ctxTestSet(t)
	cfg := ctxTestConfig(3)
	cfg.StartEpoch = 4
	if _, err := Train(cfg, ds); err == nil {
		t.Fatal("StartEpoch beyond Epochs should fail")
	}
	cfg = ctxTestConfig(3)
	cfg.StartEpoch = -1
	if _, err := Train(cfg, ds); err == nil {
		t.Fatal("negative StartEpoch should fail")
	}
	cfg = ctxTestConfig(3)
	cfg.InitWeights = []float32{1, 2} // model needs 16
	if _, err := Train(cfg, ds); err == nil {
		t.Fatal("mis-sized InitWeights should fail")
	}
}

func TestEpochEndAbortsRun(t *testing.T) {
	ds := ctxTestSet(t)
	boom := fmt.Errorf("checkpoint write failed")
	cfg := ctxTestConfig(5)
	calls := 0
	cfg.EpochEnd = func(st EpochState) error {
		calls++
		if st.Epoch == 2 {
			return boom
		}
		return nil
	}
	if _, err := Train(cfg, ds); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the EpochEnd error", err)
	}
	if calls != 2 {
		t.Fatalf("EpochEnd called %d times, want 2", calls)
	}
}
