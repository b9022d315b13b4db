package main

// healthsweep charts the paper's §3 argument as a measurement: the same
// training problem at 4-, 8- and 16-bit model precision, under biased
// (nearest) and unbiased (shared-randomness) rounding, with the engine's
// numerical-health counters on. Saturation rate, gradient underflow and
// mean signed rounding bias — not the raw bit width — explain where the
// final loss degrades.

import (
	"fmt"

	"buckwild/internal/core"
	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
)

func init() {
	register("healthsweep", "numerical health vs model precision and rounding", runHealthSweep)
}

type healthPoint struct {
	m     kernels.Prec
	quant kernels.QuantKind
	name  string
}

func runHealthSweep(quick bool) error {
	m, epochs := 3000, 8
	if quick {
		m, epochs = 1000, 4
	}
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 64, M: m, P: kernels.I8, Seed: 68})
	if err != nil {
		return err
	}
	var points []healthPoint
	for _, prec := range []kernels.Prec{kernels.I4, kernels.I8, kernels.I16} {
		for _, q := range []kernels.QuantKind{kernels.QBiased, kernels.QShared} {
			label := "biased"
			if q == kernels.QShared {
				label = "stoch"
			}
			points = append(points, healthPoint{prec, q, fmt.Sprintf("%v/%s", prec, label)})
		}
	}
	// Sequential sharing keeps every point deterministic, so the sweep can
	// run concurrently without changing any counter. The health Observer is
	// always on here — the health numbers ARE the experiment's output.
	res, err := trainSweep(ds, len(points), func(i int) core.Config {
		return core.Config{
			Problem: core.Logistic, D: kernels.I8, M: points[i].m,
			Variant: kernels.HandOpt, Quant: points[i].quant, QuantPeriod: 8,
			Threads: 1, StepSize: 0.1, Epochs: epochs,
			Sharing: core.Sequential, Seed: 7,
			Observer: &obs.Observer{NumHealth: true},
		}
	})
	if err != nil {
		return err
	}
	header("model/rounding", "final loss", "sat/write", "underflows", "bias quanta", "wts@bounds")
	for i, p := range points {
		h := res[i].Stats.NumHealth
		satRate := 0.0
		if writes := totalWrites(res[i].Stats); writes > 0 {
			satRate = float64(h.Saturations) / float64(writes)
		}
		var atBounds uint64
		if h.Weights != nil {
			atBounds = h.Weights.AtBounds
		}
		row(p.name, finalLoss(res[i]), satRate, h.Underflows,
			fmt.Sprintf("%+.4g", h.Bias.MeanQuanta()), atBounds)
	}
	fmt.Println("\nprecision alone doesn't separate the curves (paper §3): at 4 bits biased")
	fmt.Println("rounding underflows every update and stagnates at the initial loss while")
	fmt.Println("stochastic rounding saturates; the biased mean-bias drift grows with the")
	fmt.Println("quantum where stochastic rounding stays near zero")
	return nil
}

// totalWrites sums a run's model writes across rounding kinds.
func totalWrites(s *obs.RunStats) uint64 {
	var n uint64
	for _, c := range s.ModelWrites {
		n += c
	}
	return n
}
