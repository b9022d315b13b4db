package core

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"buckwild/internal/dataset"
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
	// one quantized gradient, of one example, per round. A round takes
	// Workers consecutive examples, so each epoch drops the last
	// m mod Workers of the m examples.
	Workers int
	// ErrorFeedback carries the quantization residual into the next
	// round (Seide et al.'s essential trick).
	ErrorFeedback bool
	StepSize      float32
	Epochs        int
	// Ctx, when non-nil, bounds the run: it is checked before every
	// communication round, and cancellation returns context.Cause(Ctx).
	Ctx context.Context
}

func (c *SyncConfig) fill() error {
	if c.Workers < 1 {
		c.Workers = 1
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

	perRound := cfg.Workers
	dots := make([]float32, perRound)
	inv := cfg.StepSize / float32(cfg.Workers)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for start := 0; start+perRound <= ds.Len(); start += perRound {
			if err := ctxErr(cfg.Ctx); err != nil {
				return nil, err
			}
			// Local gradients. Every example of the round reads the
			// same model, so the dots come first.
			rows, ys := ds.Raw[start:start+perRound], ds.Y[start:start+perRound]
			RowDots(dots, w, rows)
			for k, g := range grads {
				clear(g)
				if a := GradScale(cfg.Problem, dots[k], ys[k], 1); a != 0 {
					RowAxpy(a, rows[k], g)
				}
			}
			// Quantized all-reduce: each worker communicates its
			// (residual-corrected) gradient at CommBits; the
			// aggregate is averaged and applied everywhere.
			for k, g := range grads {
				q := quantizeComm(g, residuals[k], cfg.CommBits, cfg.ErrorFeedback)
				for j, v := range q[:len(agg)] {
					agg[j] += v
				}
			}
			for j, v := range agg[:len(w)] {
				w[j] += inv * v
				agg[j] = 0
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
	return res, nil
}

// RowDots sets dots[i] to the inner product of rows[i] with w, summed in
// float32 in index order — the bits of a plain loop — four rows to a pass
// over w, so four independent sums share each load of w. Rows are at
// least as long as w.
func RowDots(dots, w []float32, rows [][]float32) {
	dots = dots[:len(rows)]
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		a, b, c, d := rows[i][:len(w)], rows[i+1][:len(w)], rows[i+2][:len(w)], rows[i+3][:len(w)]
		var sa, sb, sc, sd float32
		for j, v := range w {
			sa += a[j] * v
			sb += b[j] * v
			sc += c[j] * v
			sd += d[j] * v
		}
		dots[i], dots[i+1], dots[i+2], dots[i+3] = sa, sb, sc, sd
	}
	for ; i < len(rows); i++ {
		x := rows[i][:len(w)]
		var s float32
		for j, v := range w {
			s += x[j] * v
		}
		dots[i] = s
	}
}

// RowAxpy adds a·x to g elementwise. x is at least as long as g.
func RowAxpy(a float32, x, g []float32) {
	x = x[:len(g)]
	for j, v := range x {
		g[j] += a * v
	}
}

// quantizeComm quantizes a worker's gradient to bits, optionally carrying
// the residual to the next round. The returned slice aliases the worker's
// gradient buffer (overwritten with the quantized values).
//
// For 1 bit this is Seide et al.'s scheme: each coordinate sends only a
// sign, scaled by the mean magnitude; the full-precision difference stays
// in the residual. For 1 < bits < 32 a symmetric uniform grid over the
// max magnitude is used.
func quantizeComm(g, residual []float32, bits uint, errorFeedback bool) []float32 {
	if bits >= 32 {
		return g
	}
	if !errorFeedback {
		residual = nil
	}
	if bits == 1 {
		if scale := float32(feedAbsSum(g, residual) / float64(len(g))); scale != 0 {
			signComm(g, residual, scale)
		}
		return g
	}
	scale := FeedMaxAbs(g, residual)
	if scale == 0 {
		return g
	}
	levels := float32(int32(1)<<(bits-1)) - 1 // e.g. 127 for 8 bits
	if residual != nil {
		residual = residual[:len(g)]
	}
	for j, v := range g {
		r := v / scale * levels
		q := float32(math.Round(float64(r))) / levels * scale
		if residual != nil {
			residual[j] = v - q
		}
		g[j] = q
	}
	return g
}

// feedAbsSum adds the residual into g (when residual is non-nil) and
// returns Σ|g[j]| in float64, summed in index order.
func feedAbsSum(g, residual []float32) float64 {
	var sum float64
	if residual != nil {
		residual = residual[:len(g)]
	}
	for j, v := range g {
		if residual != nil {
			v += residual[j]
			g[j] = v
		}
		sum += math.Abs(float64(v))
	}
	return sum
}

// FeedMaxAbs adds the residual into g (when residual is non-nil) and
// returns max|g[j]|; NaN coordinates never win. The sync engine's comm
// grid and the cluster's wire codec both scale by it.
func FeedMaxAbs(g, residual []float32) float32 {
	var m float32
	if residual != nil {
		residual = residual[:len(g)]
	}
	for j, v := range g {
		if residual != nil {
			v += residual[j]
			g[j] = v
		}
		if a := float32(math.Abs(float64(v))); a > m {
			m = a
		}
	}
	return m
}

// signComm replaces each g[j] with +scale, or -scale where g[j] < 0, and
// when residual is non-nil stores g[j] - q there. The sign is selected
// without a branch: v < 0 holds exactly for the bit patterns from
// 0x80000001 (the smallest negative subnormal) through 0xff800000 (-Inf),
// so -0 and every NaN, whatever its sign bit, send +scale as the
// comparison does.
func signComm(g, residual []float32, scale float32) {
	sb := math.Float32bits(scale)
	if residual != nil {
		residual = residual[:len(g)]
	}
	for j, v := range g {
		q := math.Float32frombits(sb ^ negBit(v))
		if residual != nil {
			residual[j] = v - q
		}
		g[j] = q
	}
}

// negBit is 1<<31 when v < 0 and 0 otherwise, computed without a branch.
func negBit(v float32) uint32 {
	x := uint64(math.Float32bits(v) - 0x80000001)
	return uint32((x-0x7f800000)>>63) << 31
}

// SyncLoss evaluates the configured problem's loss for external callers,
// on min(GOMAXPROCS, rows/1024) goroutines; metrics.Mean's value does not
// depend on the count, bit for bit.
func SyncLoss(p Problem, w []float32, ds *dataset.DenseSet) (float64, error) {
	return metrics.Mean(p.loss(), w, metrics.Dense(ds.Raw), ds.Y, min(runtime.GOMAXPROCS(0), ds.Len()/1024))
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
