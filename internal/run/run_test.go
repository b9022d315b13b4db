package run

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"buckwild/internal/core"
	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
)

// testDense generates the shared low-precision logistic problem the
// supervisor tests train on: small enough that a full run takes
// milliseconds, I8 end to end so checkpoints exercise the quantized
// round-trip.
func testDense(t *testing.T) *dataset.DenseSet {
	t.Helper()
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 16, M: 120, P: kernels.I8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testTrainConfig(epochs int) core.Config {
	return core.Config{
		Problem:   core.Logistic,
		D:         kernels.I8,
		M:         kernels.I8,
		MiniBatch: 1,
		StepSize:  0.2,
		StepDecay: 0.9,
		Epochs:    epochs,
		Sharing:   core.Sequential,
		Seed:      99,
	}
}

func noSleep(time.Duration) {}

// TestCrashResumeDeterminism is the headline acceptance check: a run
// with an injected worker crash must resume from the latest checkpoint
// and land on the same final loss as an uninterrupted run, and do so
// identically across invocations.
func TestCrashResumeDeterminism(t *testing.T) {
	ds := testDense(t)
	const epochs = 6

	base, err := core.Train(testTrainConfig(epochs), ds)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := ParsePlan("crash@step=380")
	if err != nil {
		t.Fatal(err)
	}
	supervised := func() *Report {
		t.Helper()
		rep, err := Train(context.Background(), Config{
			Dir:    t.TempDir(),
			Faults: plan,
			sleep:  noSleep,
		}, testTrainConfig(epochs), ds)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	rep1 := supervised()
	rep2 := supervised()

	// Step 380 lands mid-epoch 4; epochs 1-3 were checkpointed.
	st := rep1.Stats
	if st.Attempts != 2 || st.Retries != 1 || st.InjectedCrashes != 1 || st.Resumes != 1 || st.ResumedEpoch != 3 {
		t.Fatalf("stats: %+v, want 2 attempts, 1 retry, 1 crash, resume from epoch 3", st)
	}
	if rep1.Checkpoint == "" {
		t.Fatalf("no checkpoint path reported")
	}
	if got := len(rep1.Result.TrainLoss); got != epochs+1 {
		t.Fatalf("stitched trajectory has %d entries, want %d", got, epochs+1)
	}

	final := rep1.Result.TrainLoss[epochs]
	if diff := math.Abs(final - base.TrainLoss[epochs]); diff > 1e-3 {
		t.Fatalf("resumed final loss %v vs uninterrupted %v (|diff| %v > 1e-3)", final, base.TrainLoss[epochs], diff)
	}
	// Sequential sharing plus epoch-derived PRNG streams make recovery
	// bit-exact, not merely close — across repeated invocations too.
	for i := range rep1.Result.TrainLoss {
		if rep1.Result.TrainLoss[i] != rep2.Result.TrainLoss[i] {
			t.Fatalf("two supervised runs diverge at epoch %d: %v vs %v", i, rep1.Result.TrainLoss[i], rep2.Result.TrainLoss[i])
		}
	}
	for i := range rep1.Result.W {
		if rep1.Result.W[i] != rep2.Result.W[i] {
			t.Fatalf("two supervised runs diverge at weight %d", i)
		}
	}
	for i := range rep1.Result.W {
		if rep1.Result.W[i] != base.W[i] {
			t.Fatalf("resumed weights diverge from uninterrupted run at %d: %v vs %v", i, rep1.Result.W[i], base.W[i])
		}
	}
}

// TestCorruptCheckpointFallback corrupts the newest checkpoint before
// the crash, forcing the resume to fall back one checkpoint further and
// still recover exactly.
func TestCorruptCheckpointFallback(t *testing.T) {
	ds := testDense(t)
	const epochs = 6

	base, err := core.Train(testTrainConfig(epochs), ds)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParsePlan("corrupt@ckpt=3,crash@step=380")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Train(context.Background(), Config{
		Dir:    t.TempDir(),
		Faults: plan,
		sleep:  noSleep,
	}, testTrainConfig(epochs), ds)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	if st.CorruptedCheckpoints != 1 || st.CheckpointFallbacks != 1 || st.ResumedEpoch != 2 {
		t.Fatalf("stats: %+v, want 1 corrupted write, 1 load fallback, resume from epoch 2", st)
	}
	if got, want := rep.Result.TrainLoss[epochs], base.TrainLoss[epochs]; got != want {
		t.Fatalf("final loss after fallback %v, uninterrupted %v", got, want)
	}
}

// TestStallDegrade hangs a worker in two successive attempts, expects the
// watchdog to cancel each, and the supervisor to degrade to one worker
// fewer after the second and finish.
func TestStallDegrade(t *testing.T) {
	ds := testDense(t)
	tc := testTrainConfig(3)
	tc.Sharing = core.Locked
	tc.Threads = 2

	// Both stalls land mid-epoch 0, before any checkpoint: each attempt
	// restarts from scratch and counts its steps from 1, so the second
	// stall fires in the second attempt.
	plan, err := ParsePlan("stall@step=60,stall@step=60")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Train(context.Background(), Config{
		Dir:          t.TempDir(),
		Faults:       plan,
		StallTimeout: 200 * time.Millisecond,
		sleep:        noSleep,
	}, tc, ds)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	if st.InjectedStalls != 2 || st.StallsDetected != 2 {
		t.Fatalf("stats: %+v, want 2 injected and 2 detected stalls", st)
	}
	if st.Attempts != 3 || st.Degradations != 1 || st.FinalThreads != 1 {
		t.Fatalf("stats: %+v, want degradation to 1 worker after the second stall", st)
	}
	if rep.Result == nil || len(rep.Result.TrainLoss) != 4 {
		t.Fatalf("degraded run did not finish: %+v", rep.Result)
	}
}

// cancelAt is a user Hooks implementation that cancels the parent
// context at its nth observed model update.
type cancelAt struct {
	obs.NopHooks
	n      uint64
	steps  atomic.Uint64
	cancel context.CancelFunc
}

func (c *cancelAt) OnStep(obs.StepInfo) {
	if c.steps.Add(1) == c.n {
		c.cancel()
	}
}

// TestContextCancelLeavesResumableCheckpoint cancels mid-run and then
// restarts the supervisor over the same directory — the killed-process
// recovery path.
func TestContextCancelLeavesResumableCheckpoint(t *testing.T) {
	ds := testDense(t)
	const epochs = 6
	dir := t.TempDir()

	base, err := core.Train(testTrainConfig(epochs), ds)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// 120 updates per epoch: step 250 is mid-epoch 3, after the epoch-2
	// checkpoint.
	_, err = Train(ctx, Config{
		Dir:      dir,
		Observer: obs.Observer{Hooks: &cancelAt{n: 250, cancel: cancel}, StepSample: 1},
		sleep:    noSleep,
	}, testTrainConfig(epochs), ds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}

	ck, _, _, err := LoadLatest(dir)
	if err != nil || ck == nil {
		t.Fatalf("no valid checkpoint after cancel: %v, %v", ck, err)
	}
	if ck.Epoch != 2 {
		t.Fatalf("checkpoint at epoch %d, want 2", ck.Epoch)
	}

	// A fresh supervisor over the same directory picks the run back up.
	rep, err := Train(context.Background(), Config{Dir: dir, sleep: noSleep}, testTrainConfig(epochs), ds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Resumes != 1 || rep.Stats.ResumedEpoch != 2 {
		t.Fatalf("restart stats: %+v, want resume from epoch 2", rep.Stats)
	}
	if got, want := rep.Result.TrainLoss[epochs], base.TrainLoss[epochs]; got != want {
		t.Fatalf("resumed-after-cancel final loss %v, uninterrupted %v", got, want)
	}
	if got := len(rep.Result.TrainLoss); got != epochs+1 {
		t.Fatalf("stitched trajectory has %d entries, want %d", got, epochs+1)
	}
}

// TestGiveUpAfterRetries exhausts the retry budget with repeated
// crashes.
func TestGiveUpAfterRetries(t *testing.T) {
	ds := testDense(t)
	plan, err := ParsePlan("crash@step=5,crash@step=5")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Train(context.Background(), Config{
		Dir:        t.TempDir(),
		MaxRetries: 1,
		Faults:     plan,
		sleep:      noSleep,
	}, testTrainConfig(3), ds)
	if err == nil || !errors.Is(err, ErrInjectedCrash) || !strings.Contains(err.Error(), "giving up after 2 attempts") {
		t.Fatalf("exhausted retries returned %v", err)
	}
}

// TestSupervisedMatchesBare checks the no-fault path: one attempt, a
// checkpoint per epoch, results identical to an unsupervised run.
func TestSupervisedMatchesBare(t *testing.T) {
	ds := testDense(t)
	const epochs = 4
	base, err := core.Train(testTrainConfig(epochs), ds)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Train(context.Background(), Config{Dir: t.TempDir(), sleep: noSleep}, testTrainConfig(epochs), ds)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	if st.Attempts != 1 || st.Retries != 0 || st.Checkpoints != epochs || st.Resumes != 0 {
		t.Fatalf("stats: %+v, want 1 clean attempt with %d checkpoints", st, epochs)
	}
	for i := range base.TrainLoss {
		if base.TrainLoss[i] != rep.Result.TrainLoss[i] {
			t.Fatalf("supervision changed the trajectory at epoch %d", i)
		}
	}
}

// TestSparseCrashResume exercises the sparse engine through the same
// crash/resume cycle.
func TestSparseCrashResume(t *testing.T) {
	ds, err := dataset.GenSparse(dataset.SparseConfig{N: 64, M: 100, Density: 0.1, P: kernels.I8, IdxBits: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 5
	tc := testTrainConfig(epochs)
	base, err := core.Train(tc, ds)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParsePlan("crash@step=250")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Train(context.Background(), Config{Dir: t.TempDir(), Faults: plan, sleep: noSleep}, tc, ds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.InjectedCrashes != 1 || rep.Stats.Resumes != 1 {
		t.Fatalf("stats: %+v, want 1 crash and 1 resume", rep.Stats)
	}
	if got, want := rep.Result.TrainLoss[epochs], base.TrainLoss[epochs]; got != want {
		t.Fatalf("sparse resumed final loss %v, uninterrupted %v", got, want)
	}
}

// lifecycleRecorder records supervisor lifecycle callbacks.
type lifecycleRecorder struct {
	obs.NopHooks
	checkpoints []obs.CheckpointInfo
	retries     []obs.RetryInfo
}

func (l *lifecycleRecorder) OnCheckpoint(ci obs.CheckpointInfo) {
	l.checkpoints = append(l.checkpoints, ci)
}
func (l *lifecycleRecorder) OnRetry(ri obs.RetryInfo) { l.retries = append(l.retries, ri) }

func TestLifecycleHooks(t *testing.T) {
	ds := testDense(t)
	plan, err := ParsePlan("crash@step=380")
	if err != nil {
		t.Fatal(err)
	}
	rec := &lifecycleRecorder{}
	rep, err := Train(context.Background(), Config{
		Dir:      t.TempDir(),
		Faults:   plan,
		Observer: obs.Observer{Hooks: rec},
		sleep:    noSleep,
	}, testTrainConfig(6), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.checkpoints) != rep.Stats.Checkpoints {
		t.Fatalf("OnCheckpoint fired %d times, stats say %d", len(rec.checkpoints), rep.Stats.Checkpoints)
	}
	if len(rec.retries) != 1 {
		t.Fatalf("OnRetry fired %d times, want 1", len(rec.retries))
	}
	ri := rec.retries[0]
	if !errors.Is(ri.Err, ErrInjectedCrash) || ri.ResumeEpoch != 3 || ri.Attempt != 1 {
		t.Fatalf("retry info %+v", ri)
	}
}

// TestRetriesExhaustedTriggersBundle checks the supervisor's anomaly
// hookup: giving up after the retry budget writes exactly one debug
// bundle naming the failure.
func TestRetriesExhaustedTriggersBundle(t *testing.T) {
	ds := testDense(t)
	bundleDir := t.TempDir()
	bundler, err := obs.NewBundler(obs.BundleConfig{Dir: bundleDir}, &obs.Surface{Flight: obs.NewFlightRecorder(0)})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParsePlan("crash@step=5,crash@step=5")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Train(context.Background(), Config{
		Dir:        t.TempDir(),
		MaxRetries: 1,
		Faults:     plan,
		Bundle:     bundler,
		sleep:      noSleep,
	}, testTrainConfig(3), ds)
	if err == nil || !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("exhausted retries returned %v", err)
	}
	files, err := filepath.Glob(filepath.Join(bundleDir, "*"+obs.DebugBundleSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("exhausted retries produced %d bundles, want 1: %v", len(files), files)
	}
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, err := obs.ReadBundle(f)
	if err != nil {
		t.Fatal(err)
	}
	if info.Manifest.Reason != "retries-exhausted" {
		t.Errorf("bundle reason = %q, want retries-exhausted", info.Manifest.Reason)
	}
	if !strings.Contains(info.Manifest.Detail, "giving up after 2 attempts") {
		t.Errorf("bundle detail = %q", info.Manifest.Detail)
	}
}
