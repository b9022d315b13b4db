package core

import (
	"context"
	"fmt"
	"math"

	"buckwild/internal/dataset"
	"buckwild/internal/fixed"
	"buckwild/internal/metrics"
)

// This file implements the explicit-communication corner of the DMGC space
// (the C term): synchronous data-parallel SGD in which workers exchange
// quantized gradients instead of sharing a model through the cache
// hierarchy. With CommBits=1 and error feedback it reproduces the system of
// Seide et al. (Table 1, signature C1s): gradients are "quantized ... to
// but one bit per value" while a full-precision model and a full-precision
// carried-forward quantization error preserve convergence.

// SyncConfig configures a synchronous quantized-communication run.
type SyncConfig struct {
	Problem Problem
	// CommBits is the communication precision in bits (1..32; 32 means
	// full-precision communication).
	CommBits uint
	// Workers is the number of data-parallel workers; each contributes
	// one quantized gradient per round.
	Workers int
	// BatchPerWorker is the examples each worker accumulates per round.
	BatchPerWorker int
	// ErrorFeedback carries the quantization residual into the next
	// round (Seide et al.'s essential trick).
	ErrorFeedback bool
	StepSize      float32
	Epochs        int
	Seed          uint64
	// Ctx, when non-nil, bounds the run: it is checked before every
	// communication round, and cancellation returns context.Cause(Ctx).
	Ctx context.Context
	// CollectNumHealth enables numerical-health counting over the
	// communication quantizer: gradient coordinates quantized to zero
	// (underflows) and the signed grid rounding error in grid steps fill
	// Result.NumStats with mode "comm-grid".
	CollectNumHealth bool
}

func (c *SyncConfig) fill() error {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.BatchPerWorker < 1 {
		c.BatchPerWorker = 1
	}
	if c.Epochs < 1 {
		c.Epochs = 1
	}
	if c.CommBits < 1 || c.CommBits > 32 {
		return fmt.Errorf("core: CommBits must be in [1, 32]")
	}
	if c.StepSize <= 0 {
		return fmt.Errorf("core: StepSize must be positive")
	}
	return nil
}

// TrainSyncDense runs synchronous data-parallel SGD with quantized
// inter-worker communication on a dense dataset (stored at full precision:
// this engine exercises the C term in isolation, like the systems it
// models).
func TrainSyncDense(cfg SyncConfig, ds *dataset.DenseSet) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	n := ds.N
	w := make([]float32, n)
	// Per-worker gradient buffers and carried-forward residuals.
	grads := make([][]float32, cfg.Workers)
	residuals := make([][]float32, cfg.Workers)
	for k := range grads {
		grads[k] = make([]float32, n)
		residuals[k] = make([]float32, n)
	}
	agg := make([]float32, n)

	res := &Result{}
	loss, err := SyncLoss(cfg.Problem, w, ds)
	if err != nil {
		return nil, err
	}
	res.TrainLoss = append(res.TrainLoss, loss)

	var nc *fixed.NumCounts
	if cfg.CollectNumHealth {
		nc = &fixed.NumCounts{}
	}
	perRound := cfg.Workers * cfg.BatchPerWorker
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for start := 0; start+perRound <= ds.Len(); start += perRound {
			if err := ctxErr(cfg.Ctx); err != nil {
				return nil, err
			}
			// Local gradient accumulation.
			for k := 0; k < cfg.Workers; k++ {
				g := grads[k]
				for j := range g {
					g[j] = 0
				}
				for b := 0; b < cfg.BatchPerWorker; b++ {
					i := start + k*cfg.BatchPerWorker + b
					var dot float32
					for j := 0; j < n; j++ {
						dot += ds.Raw[i][j] * w[j]
					}
					a := GradScale(cfg.Problem, dot, ds.Y[i], 1) / float32(cfg.BatchPerWorker)
					if a == 0 {
						continue
					}
					for j := 0; j < n; j++ {
						g[j] += a * ds.Raw[i][j]
					}
				}
			}
			// Quantized all-reduce: each worker communicates its
			// (residual-corrected) gradient at CommBits; the
			// aggregate is averaged and applied everywhere.
			for j := range agg {
				agg[j] = 0
			}
			for k := 0; k < cfg.Workers; k++ {
				q := quantizeComm(grads[k], residuals[k], cfg.CommBits, cfg.ErrorFeedback, nc)
				for j := range agg {
					agg[j] += q[j]
				}
			}
			inv := cfg.StepSize / float32(cfg.Workers)
			for j := range w {
				w[j] += inv * agg[j]
			}
			res.Steps++
		}
		loss, err := SyncLoss(cfg.Problem, w, ds)
		if err != nil {
			return nil, err
		}
		res.TrainLoss = append(res.TrainLoss, loss)
	}
	res.W = w
	if nc != nil {
		res.NumStats = NumStats(nc, "comm-grid")
	}
	return res, nil
}

// quantizeComm quantizes a worker's gradient to bits, optionally carrying
// the residual to the next round. The returned slice aliases the worker's
// gradient buffer (overwritten with the quantized values).
//
// For 1 bit this is Seide et al.'s scheme: each coordinate sends only a
// sign, scaled by the mean magnitude; the full-precision difference stays
// in the residual. For 1 < bits < 32 a symmetric uniform grid over the
// max magnitude is used.
//
// A non-nil nc collects numerical health for the grid path (bits > 1):
// nonzero coordinates quantized to zero count as underflows, and the
// signed rounding error accumulates in grid steps (scale/levels quanta).
// The 1-bit scheme never produces a zero and has no grid to measure.
func quantizeComm(g, residual []float32, bits uint, errorFeedback bool, nc *fixed.NumCounts) []float32 {
	if bits >= 32 {
		return g
	}
	// Residual correction.
	if errorFeedback {
		for j := range g {
			g[j] += residual[j]
		}
	}
	var scale float32
	if bits == 1 {
		var sum float64
		for _, v := range g {
			sum += math.Abs(float64(v))
		}
		scale = float32(sum / float64(len(g)))
	} else {
		for _, v := range g {
			if a := float32(math.Abs(float64(v))); a > scale {
				scale = a
			}
		}
	}
	if scale == 0 {
		return g
	}
	if bits == 1 {
		for j, v := range g {
			q := scale
			if v < 0 {
				q = -scale
			}
			if errorFeedback {
				residual[j] = v - q
			}
			g[j] = q
		}
		return g
	}
	levels := float32(int32(1)<<(bits-1)) - 1 // e.g. 127 for 8 bits
	// Grid rounding proceeds one cache line of gradient at a time —
	// 16 float32 values — mirroring the kernels' word-blocked layout: the
	// loop-invariant scale/levels work is hoisted out of the element loop
	// and each block is rounded, residual-corrected and health-counted as
	// a unit. The per-element arithmetic is unchanged, so quantized values
	// are bit-identical to the former elementwise loop.
	const lineFloats = 16
	for base := 0; base < len(g); base += lineFloats {
		end := base + lineFloats
		if end > len(g) {
			end = len(g)
		}
		blk := g[base:end]
		for o, v := range blk {
			r := v / scale * levels
			q := float32(math.Round(float64(r))) / levels * scale
			if nc != nil {
				if v != 0 && q == 0 {
					nc.Underflows++
				}
				// Signed rounding error in grid steps: one quantum is
				// scale/levels.
				nc.BiasN++
				nc.BiasSumQ += float64(q-v) * float64(levels) / float64(scale)
			}
			if errorFeedback {
				residual[base+o] = v - q
			}
			blk[o] = q
		}
	}
	return g
}

// SyncLoss evaluates the configured problem's loss for external callers.
func SyncLoss(p Problem, w []float32, ds *dataset.DenseSet) (float64, error) {
	return metrics.Mean(p.loss(), w, ds.Raw, ds.Y, 1)
}

// loss is the problem's per-example loss.
func (p Problem) loss() metrics.Loss {
	switch p {
	case Logistic:
		return metrics.Logistic
	case Linear:
		return metrics.Squared
	default:
		return metrics.Hinge
	}
}
