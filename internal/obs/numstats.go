package obs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// This file holds the numerical-health half of the run statistics: the
// snapshot types the engine fills from its per-worker counting shards
// (saturation per clamp site, signed rounding bias, underflows, the
// per-epoch weight-distribution pass), the health an epoch carries,
// and the HealthWatchdog divergence detector. The paper's §3
// argument — that saturation and rounding bias, not raw bit width, drive
// low-precision accuracy gaps — becomes a set of live metrics here.

// NumStats is the numerical-health snapshot of one training run. The
// engine aggregates it from per-worker counting shards after the workers
// join; Merge folds several runs together for sweep-level reports.
type NumStats struct {
	// SatBySite counts saturation (clamp) events by arithmetic site, keyed
	// by the three fixed.Site names: "saturate" for raw model-write clamps
	// (the rounded AXPY delta and the saturating add that applies it),
	// "muladd8to16" for the vpmaddubsw pair-sum clamp of the 8-bit dot,
	// "quantize" for float-to-fixed conversions hitting the format bounds.
	// Sites that never fired are absent.
	SatBySite map[string]uint64 `json:"saturations_by_site,omitempty"`
	// Saturations is the total across all sites.
	Saturations uint64 `json:"saturations"`
	// Underflows counts nonzero gradient contributions quantized to zero
	// (dropped whole updates and per-element deltas that rounded away).
	Underflows uint64 `json:"underflows"`
	// Bias is the measured signed rounding error of quantized writes.
	Bias RoundingBias `json:"rounding_bias"`
	// Weights is the model-weight distribution at the last observed
	// epoch boundary (nil when the run collected no weight pass).
	Weights *WeightStats `json:"weights,omitempty"`
}

// RoundingBias accumulates the signed quantization error (rounded −
// exact, in quanta of the destination format) over the writes that fed
// it. Unbiased (stochastic) rounding keeps the mean near zero; biased
// (nearest) rounding lets it drift — the paper's §3 distinction as a
// measurement.
type RoundingBias struct {
	// Mode names the rounding discipline the run used (a kernels
	// QuantKind name, or "comm-grid" for synchronous communication
	// quantization).
	Mode string `json:"mode,omitempty"`
	// Samples counts the writes measured; SumQuanta is their summed
	// signed error in quanta.
	Samples   uint64  `json:"samples"`
	SumQuanta float64 `json:"sum_quanta"`
}

// MeanQuanta returns the mean signed rounding error in quanta (0 when
// nothing was measured).
func (b RoundingBias) MeanQuanta() float64 {
	if b.Samples == 0 {
		return 0
	}
	return b.SumQuanta / float64(b.Samples)
}

// merge folds other into b, keeping the first non-empty mode name (a
// sweep mixing modes reports the first and keeps exact totals).
func (b *RoundingBias) merge(other RoundingBias) {
	if b.Mode == "" {
		b.Mode = other.Mode
	}
	b.Samples += other.Samples
	b.SumQuanta += other.SumQuanta
}

// WeightStats describes the model-weight distribution at one epoch
// boundary: extrema and mean in real units, the count of weights pinned
// at the format bounds, and a log2-bucketed magnitude histogram in
// quanta (float models use quanta of 2^-24).
type WeightStats struct {
	// Epoch is the (1-based) epoch the pass observed.
	Epoch int `json:"epoch"`
	// Count is the number of weights observed.
	Count int `json:"count"`
	// Min, Max and Mean are over the dequantized (real) weight values,
	// skipping non-finite floats.
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	// AtBounds counts weights sitting exactly at the format's
	// representable extremes — saturated weights the next clamp cannot
	// move further.
	AtBounds uint64 `json:"at_bounds"`
	// NonFinite counts NaN/Inf weights (float models only).
	NonFinite uint64 `json:"non_finite,omitempty"`
	// Magnitude is the |weight| histogram in quanta (log2 buckets).
	Magnitude HistSnapshot `json:"magnitude"`
}

// merge folds other into w (weighted mean, component-wise extrema; Epoch
// keeps the latest).
func (w *WeightStats) merge(other *WeightStats) {
	if other == nil {
		return
	}
	if other.Epoch > w.Epoch {
		w.Epoch = other.Epoch
	}
	if w.Count == 0 {
		w.Min, w.Max = other.Min, other.Max
	} else if other.Count > 0 {
		w.Min = math.Min(w.Min, other.Min)
		w.Max = math.Max(w.Max, other.Max)
	}
	if t := w.Count + other.Count; t > 0 {
		w.Mean = (w.Mean*float64(w.Count) + other.Mean*float64(other.Count)) / float64(t)
	}
	w.Count += other.Count
	w.AtBounds += other.AtBounds
	w.NonFinite += other.NonFinite
	w.Magnitude.Merge(other.Magnitude)
}

// Merge folds other into s.
func (s *NumStats) Merge(other *NumStats) {
	if other == nil {
		return
	}
	if len(other.SatBySite) > 0 && s.SatBySite == nil {
		s.SatBySite = make(map[string]uint64, len(other.SatBySite))
	}
	for k, v := range other.SatBySite {
		s.SatBySite[k] += v
	}
	s.Saturations += other.Saturations
	s.Underflows += other.Underflows
	s.Bias.merge(other.Bias)
	if other.Weights != nil {
		if s.Weights == nil {
			s.Weights = &WeightStats{}
		}
		s.Weights.merge(other.Weights)
	}
}

// HealthInfo is the numerical health an EpochInfo carries. All counters
// are cumulative over the run (attempt), so rates computed from one
// HealthInfo describe the run so far, not just the last epoch.
type HealthInfo struct {
	// ModelWrites is the engine's cumulative model-write counter.
	ModelWrites uint64
	// Saturations, Underflows and the bias accumulator mirror NumStats.
	Saturations   uint64
	Underflows    uint64
	BiasSamples   uint64
	BiasSumQuanta float64
	// WeightsAtBounds comes from the epoch's weight pass.
	WeightsAtBounds uint64
}

// SatRate returns cumulative saturation events per model write. A dense
// write clamps per element, so values can exceed 1; sustained rates near
// or above one mean most writes are hitting a format bound.
func (h HealthInfo) SatRate() float64 {
	if h.ModelWrites == 0 {
		return 0
	}
	return float64(h.Saturations) / float64(h.ModelWrites)
}

// BiasMeanQuanta returns the cumulative mean signed rounding error.
func (h HealthInfo) BiasMeanQuanta() float64 {
	if h.BiasSamples == 0 {
		return 0
	}
	return h.BiasSumQuanta / float64(h.BiasSamples)
}

// DivergenceInfo describes a detected numerical divergence.
type DivergenceInfo struct {
	// Epoch is the epoch boundary at which the detector fired.
	Epoch int `json:"epoch"`
	// Reason says which threshold tripped, in words.
	Reason string `json:"reason"`
	// Loss, SatRate and BiasMeanQuanta are the values at detection.
	Loss           float64 `json:"loss"`
	SatRate        float64 `json:"sat_rate"`
	BiasMeanQuanta float64 `json:"bias_mean_quanta"`
}

// ErrDivergence is the sentinel every watchdog cancellation matches:
// errors.Is(err, ErrDivergence) holds for the run error of a cancelled
// run (the concrete cause is a *DivergenceError carrying the details).
var ErrDivergence = errors.New("obs: numerical divergence detected")

// DivergenceError is the context cancellation cause the HealthWatchdog
// installs; it carries the detection details and matches ErrDivergence.
type DivergenceError struct {
	Info DivergenceInfo
}

// Error implements error.
func (e *DivergenceError) Error() string {
	return fmt.Sprintf("obs: numerical divergence at epoch %d: %s", e.Info.Epoch, e.Info.Reason)
}

// Is matches the ErrDivergence sentinel.
func (e *DivergenceError) Is(target error) bool { return target == ErrDivergence }

// HealthWatchdog thresholds.
const (
	// maxSatRate is the cumulative saturations-per-model-write
	// threshold: half of all writes clamping is far beyond the benign
	// occasional clamp low-precision training tolerates.
	maxSatRate = 0.5
	// maxBiasMean is the |mean signed rounding error| threshold in
	// quanta. Unbiased rounding concentrates near 0; a sustained mean
	// near the worst case (0.5 quanta) means systematic drift.
	maxBiasMean = 0.25
)

// HealthWatchdog is a Hooks middleware that detects numerical divergence
// at an epoch boundary — a NaN/Inf loss, or a saturation rate or
// rounding-bias drift beyond the thresholds above — and stops the run:
// it forwards the tripping epoch with Divergence set, triggers a debug
// bundle, and cancels the run's context with a *DivergenceError cause,
// so the training call returns an error matching ErrDivergence. It fires
// at most once.
//
// The rate thresholds need the epoch's Health, so the run must collect
// numerical health; NaN/Inf detection works regardless.
type HealthWatchdog struct {
	// Cancel is the cancel-cause function of the run's context; required
	// for the watchdog to actually stop the run.
	Cancel context.CancelCauseFunc
	// Bundle, when non-nil, gets a debug bundle triggered at trip time,
	// before the run's context is cancelled — so the bundle's flight and
	// series sections still show the diverging run live.
	Bundle *Bundler
	// Next receives every callback, the tripping epoch with Divergence
	// set (nil: none), so the watchdog can wrap e.g. a LiveMetrics
	// without hiding it.
	Next Hooks

	fired atomic.Bool
}

// OnEpoch judges the epoch and forwards it; on the first divergence it
// then triggers the bundle and cancels the run.
func (wd *HealthWatchdog) OnEpoch(ei EpochInfo) {
	di := diverged(ei)
	if di != nil && wd.fired.CompareAndSwap(false, true) {
		ei.Divergence = di
	} else {
		di = nil
	}
	if wd.Next != nil {
		wd.Next.OnEpoch(ei)
	}
	if di == nil {
		return
	}
	wd.Bundle.Trigger("divergence", fmt.Sprintf("epoch %d: %s", di.Epoch, di.Reason))
	if wd.Cancel != nil {
		wd.Cancel(&DivergenceError{Info: *di})
	}
}

// diverged returns why the epoch counts as diverged, or nil.
func diverged(ei EpochInfo) *DivergenceInfo {
	di := &DivergenceInfo{Epoch: ei.Epoch, Loss: ei.Loss}
	if hi := ei.Health; hi != nil {
		di.SatRate, di.BiasMeanQuanta = hi.SatRate(), hi.BiasMeanQuanta()
	}
	switch {
	case math.IsNaN(ei.Loss) || math.IsInf(ei.Loss, 0):
		di.Reason = fmt.Sprintf("non-finite training loss %v", ei.Loss)
	case di.SatRate > maxSatRate:
		di.Reason = fmt.Sprintf("saturation rate %.3g per model write exceeds %.3g", di.SatRate, maxSatRate)
	case math.Abs(di.BiasMeanQuanta) > maxBiasMean:
		di.Reason = fmt.Sprintf("mean rounding bias %.3g quanta exceeds %.3g", di.BiasMeanQuanta, maxBiasMean)
	default:
		return nil
	}
	return di
}

// OnStep forwards.
func (wd *HealthWatchdog) OnStep(si StepInfo) {
	if wd.Next != nil {
		wd.Next.OnStep(si)
	}
}

// OnWorker forwards.
func (wd *HealthWatchdog) OnWorker(wi WorkerInfo) {
	if wd.Next != nil {
		wd.Next.OnWorker(wi)
	}
}

// OnCheckpoint forwards.
func (wd *HealthWatchdog) OnCheckpoint(ci CheckpointInfo) {
	if wd.Next != nil {
		wd.Next.OnCheckpoint(ci)
	}
}

// OnRetry forwards.
func (wd *HealthWatchdog) OnRetry(ri RetryInfo) {
	if wd.Next != nil {
		wd.Next.OnRetry(ri)
	}
}
