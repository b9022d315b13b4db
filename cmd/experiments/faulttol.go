package main

import (
	"fmt"
	"os"
	"time"

	"buckwild/internal/core"
	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
	"buckwild/internal/run"
)

func init() {
	register("faulttol", "supervised training under injected crashes: checkpoint, resume, retry", runFaultTol)
}

// runFaultTol exercises the fault-tolerance layer end to end: a dense
// logistic training supervised with per-epoch checkpointing and a crash
// injected mid-epoch after the first checkpoint exists, so the retry
// resumes from disk instead of restarting from scratch. The loss
// trajectory is stitched across the restart, so it matches an
// uninterrupted run of the same seed — which is what the table checks.
func runFaultTol(quick bool) error {
	m := 3000
	epochs := 8
	if quick {
		m, epochs = 1000, 4
	}
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 64, M: m, P: kernels.I8, Seed: 55})
	if err != nil {
		return err
	}
	cfg := core.Config{
		Problem: core.Logistic, D: kernels.I8, M: kernels.I8,
		Variant: kernels.HandOpt, Quant: kernels.QXorshift,
		Threads: 1, StepSize: 0.02, Epochs: epochs,
		Sharing: core.Sequential, Seed: 9,
	}

	// Baseline: the same training, unsupervised and fault-free.
	base, err := core.Train(cfg, ds)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "faulttol-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// One model update per example, so step m+m/2 is mid-epoch 1 — after
	// epoch 0's checkpoint was written, forcing a real resume.
	plan, err := run.ParsePlan(fmt.Sprintf("crash@step=%d", m+m/2))
	if err != nil {
		return err
	}
	rep, err := run.Train(runCtx, run.Config{
		Dir: dir, Every: 1,
		MaxRetries: 3, Backoff: time.Millisecond,
		Faults: plan,
		// The supervisor doesn't read the context tracer itself (its
		// callers pass one explicitly), so thread -trace's through.
		Observer: obs.Observer{Tracer: obs.TracerFrom(runCtx)},
	}, cfg, ds)
	if err != nil {
		return err
	}
	reportSupervisor(&rep.Stats)
	reportTrain(rep.Result.Stats)

	header("", "attempts", "resumes", "ckpts", "final loss")
	row("fault-free", 1, 0, 0, base.TrainLoss[epochs])
	row("crash+resume", rep.Stats.Attempts, rep.Stats.Resumes, rep.Stats.Checkpoints,
		rep.Result.TrainLoss[epochs])
	fmt.Printf("\nresumed from epoch %d after %d injected crash(es); trajectories match from the resume point on\n",
		rep.Stats.ResumedEpoch, rep.Stats.InjectedCrashes)
	return nil
}
