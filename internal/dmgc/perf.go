package dmgc

import (
	"fmt"
	"math"
)

// Regime classifies which resource bounds throughput at a given model size
// (Section 4, Figure 2).
type Regime int

const (
	// BandwidthBound: per-core memory bandwidth limits throughput; the
	// model is large enough that coherence traffic is negligible.
	BandwidthBound Regime = iota
	// CommunicationBound: the model is small, writes invalidate other
	// cores' cached lines frequently, and inter-core communication
	// latency limits throughput.
	CommunicationBound
)

// String names the regime.
func (r Regime) String() string {
	if r == BandwidthBound {
		return "bandwidth-bound"
	}
	return "communication-bound"
}

// PerfModel is the Section 4 performance model. It has three ingredients:
//
//  1. Amdahl's-law thread scaling T(t) = T1 / ((1-p) + p/t)   (equation 2);
//  2. a base throughput T1 that depends only on the DMGC signature
//     (Table 2);
//  3. a parallelizable fraction p that depends only on the model size
//     (equation 3): large models are bandwidth-bound with a fixed p;
//     small models lose parallelizable fraction because model writes
//     communicate between cores more often.
//
// The paper fits its p(n) to a Xeon E7-8890 v3; the constants here are the
// reproduction's fit to the simulated machine, with the same functional
// role: PBandwidth is the fixed bandwidth-bound fraction and Kappa is the
// model size (in elements) at which communication halves the parallel
// fraction.
type PerfModel struct {
	PBandwidth float64
	Kappa      float64
	// RegimeKnee is the model size (elements) separating the two
	// regimes for classification purposes; the paper observes roughly
	// 256K elements on its Xeon.
	RegimeKnee int
	// T1 returns the base (single-thread) throughput in GNPS for a
	// signature. If nil, the Table 2 paper measurements are used.
	T1 func(sig Signature) (float64, error)
}

// DefaultPerfModel returns the model with the reproduction's standard
// constants and Table 2 base throughputs.
func DefaultPerfModel() *PerfModel {
	return &PerfModel{
		PBandwidth: 0.95,
		Kappa:      8192,
		RegimeKnee: 256 << 10,
	}
}

// P returns the parallelizable fraction for a model of n elements:
// p(n) = PBandwidth * n / (n + Kappa). The first factor is the fixed
// bandwidth bound; the size-dependent factor is the communication bound,
// which decays as models shrink and updates (hence coherence traffic)
// become more frequent.
func (m *PerfModel) P(n int) float64 {
	if n <= 0 {
		return 0
	}
	return m.PBandwidth * float64(n) / (float64(n) + m.Kappa)
}

// Regime classifies the model size.
func (m *PerfModel) Regime(n int) Regime {
	if n >= m.RegimeKnee {
		return BandwidthBound
	}
	return CommunicationBound
}

// Base returns the base throughput T1 for the signature in GNPS.
func (m *PerfModel) Base(sig Signature) (float64, error) {
	if m.T1 != nil {
		return m.T1(sig)
	}
	return Table2Base(sig)
}

// Throughput predicts dataset throughput in GNPS for the signature at the
// given model size and thread count (equation 2).
func (m *PerfModel) Throughput(sig Signature, modelSize, threads int) (float64, error) {
	if threads < 1 {
		return 0, fmt.Errorf("dmgc: thread count %d < 1", threads)
	}
	t1, err := m.Base(sig)
	if err != nil {
		return 0, err
	}
	p := m.P(modelSize)
	return t1 / ((1 - p) + p/float64(threads)), nil
}

// Speedup predicts the parallel speedup over one thread at the given model
// size (independent of signature, by model property 3).
func (m *PerfModel) Speedup(modelSize, threads int) float64 {
	p := m.P(modelSize)
	return 1 / ((1 - p) + p/float64(threads))
}

// FitP estimates PBandwidth and Kappa from measured (modelSize, speedup)
// pairs at a fixed thread count, by grid search over Kappa and closed-form
// PBandwidth per candidate. It is used to fit the model to the simulated
// machine the way the paper fit equation 3 to its Xeon.
func FitP(sizes []int, speedups []float64, threads int) (pBandwidth, kappa float64, err error) {
	if len(sizes) != len(speedups) || len(sizes) == 0 {
		return 0, 0, fmt.Errorf("dmgc: FitP needs matching non-empty samples")
	}
	if threads < 2 {
		return 0, 0, fmt.Errorf("dmgc: FitP needs threads >= 2")
	}
	// From T/T1 = 1/((1-p) + p/t):  p = (1 - T1/T) / (1 - 1/t).
	pOf := func(speedup float64) float64 {
		p := (1 - 1/speedup) / (1 - 1/float64(threads))
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		return p
	}
	best := math.Inf(1)
	for _, k := range logspace(64, 1<<20, 81) {
		// For fixed kappa, p(n) = pb * n/(n+k) is linear in pb:
		// least squares gives pb = sum(p_i * f_i) / sum(f_i^2).
		var num, den float64
		for i, n := range sizes {
			f := float64(n) / (float64(n) + k)
			num += pOf(speedups[i]) * f
			den += f * f
		}
		if den == 0 {
			continue
		}
		pb := num / den
		if pb > 1 {
			pb = 1
		}
		var sse float64
		for i, n := range sizes {
			f := pb * float64(n) / (float64(n) + k)
			d := pOf(speedups[i]) - f
			sse += d * d
		}
		if sse < best {
			best, pBandwidth, kappa = sse, pb, k
		}
	}
	if math.IsInf(best, 1) {
		return 0, 0, fmt.Errorf("dmgc: FitP found no fit")
	}
	return pBandwidth, kappa, nil
}

// logspace returns k log-spaced values in [lo, hi].
func logspace(lo, hi float64, k int) []float64 {
	out := make([]float64, k)
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := range out {
		out[i] = math.Exp(llo + (lhi-llo)*float64(i)/float64(k-1))
	}
	return out
}

// Validate compares predictions against measurements and returns the
// fraction of points whose prediction is within tol (relative). The paper
// reports 90% of configurations within 50%.
func Validate(pred, meas []float64, tol float64) (fracWithin float64, err error) {
	if len(pred) != len(meas) || len(pred) == 0 {
		return 0, fmt.Errorf("dmgc: Validate needs matching non-empty series")
	}
	within := 0
	for i := range pred {
		if meas[i] == 0 {
			continue
		}
		rel := math.Abs(pred[i]-meas[i]) / meas[i]
		if rel <= tol {
			within++
		}
	}
	return float64(within) / float64(len(pred)), nil
}
