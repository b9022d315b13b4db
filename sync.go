package buckwild

import (
	"context"
	"fmt"

	"buckwild/internal/core"
)

// SyncConfig configures synchronous data-parallel SGD with quantized
// inter-worker communication — the explicit C term of the DMGC model. With
// CommBits=1 and ErrorFeedback it reproduces 1-bit SGD (Table 1's C1s).
// The objective is logistic regression, each worker contributes one
// example per round and the step size is 0.1.
type SyncConfig struct {
	// CommBits is the communication precision (1..32).
	CommBits uint
	// Workers is the number of data-parallel workers per round.
	Workers int
	// ErrorFeedback carries the quantization residual forward.
	ErrorFeedback bool
	Epochs        int
	// Seed has no effect: the engine draws no randomness. It stays only
	// because the benchmark harness sets it; ROADMAP item 1's benchmark
	// change deletes it.
	Seed uint64
	// Context, when non-nil, bounds the run: it is checked before every
	// communication round, and cancellation returns the context's cause
	// with the "buckwild:" prefix.
	Context context.Context
}

// TrainSync runs the synchronous quantized-communication engine on a dense
// dataset (which should be stored at full precision; this engine isolates
// the C term).
func TrainSync(cfg SyncConfig, ds *DenseDataset) (*Result, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("buckwild: empty dataset")
	}
	res, err := core.TrainSyncDense(core.SyncConfig{
		Problem:       core.Logistic,
		CommBits:      cfg.CommBits,
		Workers:       cfg.Workers,
		ErrorFeedback: cfg.ErrorFeedback,
		StepSize:      0.1,
		Epochs:        cfg.Epochs,
		Ctx:           cfg.Context,
	}, ds)
	return res, wrapErr(err)
}
