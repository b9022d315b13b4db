package buckwild

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// The facade's context contract: cancellation and deadline expiry stop
// every entry point and come back as the context's error wrapped with
// the uniform "buckwild:" prefix, still matchable with errors.Is.

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func assertFacadeCancel(t *testing.T, err error, want error) {
	t.Helper()
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, want) {
		t.Fatalf("errors.Is(%v, %v) = false", err, want)
	}
	if !strings.HasPrefix(err.Error(), "buckwild:") {
		t.Fatalf("error lacks facade prefix: %v", err)
	}
}

func TestTrainDenseContextCancel(t *testing.T) {
	ds, err := GenerateDense("D8M8", 16, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Train(Config{Signature: "D8M8", Epochs: 50, Context: cancelledCtx()}, ds)
	assertFacadeCancel(t, err, context.Canceled)
}

func TestTrainSparseContextDeadline(t *testing.T) {
	ds, err := GenerateSparse("D8i16M8", 64, 100, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = Train(Config{Signature: "D8i16M8", Epochs: 50, Context: ctx}, ds)
	assertFacadeCancel(t, err, context.DeadlineExceeded)
}

func TestTrainSyncContextCancel(t *testing.T) {
	ds, err := GenerateDense("", 16, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = TrainSync(SyncConfig{CommBits: 8, Epochs: 50, Context: cancelledCtx()}, ds)
	assertFacadeCancel(t, err, context.Canceled)
}

func TestSimulateThroughputContextCancel(t *testing.T) {
	_, err := SimulateThroughput(cancelledCtx(), "D8M8", 1024, 2)
	assertFacadeCancel(t, err, context.Canceled)
}

func TestContextCancelMidRun(t *testing.T) {
	// Cancel from a hook mid-run rather than up front: training must
	// stop well before the configured 1000 epochs.
	ds, err := GenerateDense("D8M8", 16, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// OnStep sees every obs.DefaultStepSample-th update, so the second
	// sampled step is update 128, in the second epoch.
	hooks := &cancelAfterSteps{n: 2, cancel: cancel}
	_, err = Train(Config{
		Signature: "D8M8", Epochs: 1000, Context: ctx,
		Hooks: hooks,
	}, ds)
	assertFacadeCancel(t, err, context.Canceled)
}

type cancelAfterSteps struct {
	NopHooks
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfterSteps) OnStep(StepInfo) {
	if c.seen++; c.seen == c.n {
		c.cancel()
	}
}
