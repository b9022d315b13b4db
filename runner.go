package buckwild

import (
	"fmt"
	"time"

	"buckwild/internal/obs"
	"buckwild/internal/run"
)

// This file is the facade over internal/run: supervised, fault-tolerant
// training runs with periodic checkpointing, automatic resume, bounded
// retries with exponential backoff, and deterministic fault injection.

// Fault-tolerance re-exports.
type (
	// FaultPlan is a deterministic fault-injection schedule; build one
	// with ParseFaultPlan.
	FaultPlan = run.Plan
	// Fault is one scheduled fault inside a FaultPlan.
	Fault = run.Fault
	// Checkpoint is the durable state of a training run at an epoch
	// boundary, stored at the model's own precision.
	Checkpoint = run.Checkpoint
	// SupervisorStats counts what the supervisor did around the training
	// attempts of one run.
	SupervisorStats = obs.SupervisorStats
	// CheckpointInfo and RetryInfo are the OnCheckpoint and OnRetry
	// payloads of supervised runs.
	CheckpointInfo = obs.CheckpointInfo
	RetryInfo      = obs.RetryInfo
	// RunReport is the outcome of a supervised run: the training result
	// (loss trajectory stitched across restarts), the supervisor's
	// counters, and the newest checkpoint path.
	RunReport = run.Report
)

// Sentinel causes of supervised-run failures, for errors.Is.
var (
	// ErrInjectedCrash is the cause of an injected worker crash.
	ErrInjectedCrash = run.ErrInjectedCrash
	// ErrStallDetected is the cause the stall watchdog cancels with.
	ErrStallDetected = run.ErrStallDetected
)

// ParseFaultPlan parses a comma-separated fault spec, e.g.
// "corrupt@ckpt=1,crash@step=1500" (see the -fault flag of
// cmd/buckwild). An empty spec returns a nil plan, which injects
// nothing.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	p, err := run.ParsePlan(spec)
	return p, wrapErr(err)
}

// RunConfig configures the supervisor around a training run. Zero
// values select conservative defaults; only CheckpointDir is required.
type RunConfig struct {
	// CheckpointDir is where checkpoints live; a run started over a
	// directory holding checkpoints from an earlier process resumes from
	// the newest valid one.
	CheckpointDir string
	// CheckpointEvery is the checkpoint period in epochs (default 1);
	// the final epoch is always checkpointed, and the two newest files
	// are kept.
	CheckpointEvery int
	// MaxRetries bounds the retries after crashes or stalls (default 3;
	// negative disables retrying).
	MaxRetries int
	// Backoff is the first retry delay (default 50ms), doubling per
	// consecutive failure up to 5s.
	Backoff time.Duration
	// StallTimeout arms the stall watchdog; zero disables it unless the
	// fault plan injects stalls. Two consecutive stall failures degrade
	// the run to one worker fewer, never below one.
	StallTimeout time.Duration
	// Faults is the deterministic fault-injection schedule; nil injects
	// nothing.
	Faults *FaultPlan
	// Snapshotter, when non-nil, receives a promotable ModelSnapshot at
	// every checkpoint boundary (after the checkpoint file is durably on
	// disk) — the feed a serving daemon promotes hot models from. See
	// SnapshotPromoter for the adapter onto a ModelServer. Called on the
	// run's coordinating goroutine, so hand off expensive work.
	Snapshotter Snapshotter
}

func (rc RunConfig) internal(cfg Config) run.Config {
	var snap func(int, float64, []float32)
	if sn := rc.Snapshotter; sn != nil {
		sigText := cfg.Signature
		snap = func(epoch int, loss float64, w []float32) {
			sn.OnSnapshot(ModelSnapshot{Epoch: epoch, Loss: loss, Model: &Model{sigText: sigText, w: w}})
		}
	}
	return run.Config{
		Dir:          rc.CheckpointDir,
		Every:        rc.CheckpointEvery,
		MaxRetries:   rc.MaxRetries,
		Backoff:      rc.Backoff,
		StallTimeout: rc.StallTimeout,
		Faults:       rc.Faults,
		Observer:     cfg.observe(),
		Logger:       obs.Component(cfg.Logger, "run"),
		Bundle:       cfg.Bundle,
		Snapshot:     snap,
	}
}

// RunDense is the supervised counterpart of Train on a dense dataset: it
// checkpoints every CheckpointEvery epochs, resumes from the newest valid
// checkpoint after a crash or detected stall, retries with exponential
// backoff, and degrades the worker count after repeated stalls.
// Cancelling cfg.Context stops the run without retrying and leaves the
// newest checkpoint on disk for a later resume.
func RunDense(cfg Config, rc RunConfig, ds *DenseDataset) (*RunReport, error) {
	return rc.run(cfg, ds)
}

// RunSparse is the supervised counterpart of Train on a sparse dataset; see
// RunDense.
func RunSparse(cfg Config, rc RunConfig, ds *SparseDataset) (*RunReport, error) {
	return rc.run(cfg, ds)
}

func (rc RunConfig) run(cfg Config, ds Dataset) (*RunReport, error) {
	if cfg.Cluster.enabled() {
		return nil, fmt.Errorf("buckwild: supervised runs do not support cluster training (Cluster.Nodes = %d)", cfg.Cluster.Nodes)
	}
	cc, err := cfg.lower(ds)
	if err != nil {
		return nil, err
	}
	// The supervisor owns observation (it must see every step while
	// faults are armed), so the facade's Observer is not pre-installed.
	cc.Observer = nil
	rep, err := run.Train(cfg.Context, rc.internal(cfg), cc, ds)
	return rep, wrapErr(err)
}

// LoadLatestCheckpoint loads the newest valid checkpoint in dir,
// skipping corrupt or unreadable files (skipped reports how many). It
// returns (nil, "", 0, nil) when the directory holds no valid
// checkpoint.
func LoadLatestCheckpoint(dir string) (ck *Checkpoint, path string, skipped int, err error) {
	ck, path, skipped, err = run.LoadLatest(dir)
	return ck, path, skipped, wrapErr(err)
}
