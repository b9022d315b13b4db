package main

import (
	"fmt"

	"buckwild/internal/core"
	"buckwild/internal/dataset"
	"buckwild/internal/dmgc"
	"buckwild/internal/kernels"
	"buckwild/internal/machine"
	"buckwild/internal/simd"
)

func init() {
	register("fig5a", "statistical efficiency of rounding strategies (training loss per epoch)", runFig5a)
	register("fig5b", "hardware efficiency of rounding strategies (AXPY-dominated throughput)", runFig5b)
	register("fig5c", "hypothetical 4-bit SGD (D4M4) vs D8M8 throughput", runFig5c)
	register("newinsn", "Section 6.1 proposed vector instructions: end-to-end gain", runNewInsn)
}

func runFig5a(quick bool) error {
	m := 3000
	epochs := 10
	if quick {
		m, epochs = 1000, 4
	}
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 64, M: m, P: kernels.I8, Seed: 55})
	if err != nil {
		return err
	}
	strategies := []struct {
		name string
		kind kernels.QuantKind
	}{
		{"biased", kernels.QBiased},
		{"mersenne", kernels.QMersenne},
		{"xorshift", kernels.QXorshift},
		{"shared(8)", kernels.QShared},
	}
	// Sequential-sharing trainings are deterministic, so the strategies
	// can train on worker goroutines without changing the loss curves.
	res, err := trainSweep(ds, len(strategies), func(i int) core.Config {
		return core.Config{
			Problem: core.Logistic, D: kernels.I8, M: kernels.I8,
			Variant: kernels.HandOpt, Quant: strategies[i].kind, QuantPeriod: 8,
			Threads: 1, StepSize: 0.02, Epochs: epochs,
			Sharing: core.Sequential, Seed: 9,
		}
	})
	if err != nil {
		return err
	}
	header(append([]string{"epoch"}, names(strategies)...)...)
	for e := 0; e <= epochs; e++ {
		cells := []interface{}{e}
		for i := range strategies {
			cells = append(cells, res[i].TrainLoss[e])
		}
		row(cells...)
	}
	fmt.Println("\nall unbiased strategies track each other; biased rounding stalls (paper Fig 5a)")
	return nil
}

func names(ss []struct {
	name string
	kind kernels.QuantKind
}) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.name
	}
	return out
}

func runFig5b(quick bool) error {
	n := 1 << 20
	if quick {
		n = 1 << 16
	}
	cost := simd.Haswell()
	strategies := []struct {
		name string
		kind kernels.QuantKind
	}{
		{"biased", kernels.QBiased},
		{"mersenne", kernels.QMersenne},
		{"xorshift", kernels.QXorshift},
		{"shared(8)", kernels.QShared},
	}
	var points []machine.Workload
	for _, s := range strategies {
		w, err := machine.SignatureWorkload(dmgc.MustParse("D8M8"), n, 1)
		if err != nil {
			return err
		}
		w.Quant = s.kind
		points = append(points, w)
	}
	rs, err := simulateAll(machine.Xeon(), points)
	if err != nil {
		return err
	}
	header("strategy", "GNPS", "vs biased", "axpy cyc/elem")
	var base float64
	for i, s := range strategies {
		if s.kind == kernels.QBiased {
			base = rs[i].GNPS
		}
		q := kernels.MustQuantizer(kernels.I8, s.kind, 8, 1)
		k := kernels.MustDense(kernels.I8, kernels.I8, kernels.HandOpt, q)
		cyc := k.AxpyStream(n).Cycles(cost) / float64(n)
		row(s.name, rs[i].GNPS, rs[i].GNPS/base, cyc)
	}
	fmt.Println("\nper-write Mersenne collapses throughput; shared randomness nearly matches biased (paper Fig 5b)")
	return nil
}

func runFig5c(quick bool) error {
	ns := sizes(quick)
	var points []machine.Workload
	for _, n := range ns {
		w8, err := machine.SignatureWorkload(dmgc.MustParse("D8M8"), n, 18)
		if err != nil {
			return err
		}
		w4, err := machine.SignatureWorkload(dmgc.MustParse("D4M4"), n, 18)
		if err != nil {
			return err
		}
		points = append(points, w8, w4)
	}
	rs, err := simulateAll(machine.Xeon(), points)
	if err != nil {
		return err
	}
	header("model size", "D8M8", "D4M4", "speedup")
	for i, n := range ns {
		r8, r4 := rs[2*i], rs[2*i+1]
		row(fmt.Sprintf("2^%d", log2(n)), r8.GNPS, r4.GNPS, r4.GNPS/r8.GNPS)
	}
	fmt.Println("\nabout 2x across most settings (paper Fig 5c)")
	return nil
}

func runNewInsn(quick bool) error {
	ns := []int{1 << 16, 1 << 18, 1 << 20}
	if quick {
		ns = ns[:2]
	}
	threads := []int{1, 4}
	var points []machine.Workload
	for _, n := range ns {
		for _, t := range threads {
			w, err := machine.SignatureWorkload(dmgc.MustParse("D8M8"), n, t)
			if err != nil {
				return err
			}
			points = append(points, w)
			w.Variant = kernels.NewInsn
			w.Quant = kernels.QHardware
			points = append(points, w)
		}
	}
	rs, err := simulateAll(machine.Xeon(), points)
	if err != nil {
		return err
	}
	header("model size", "threads", "hand-opt", "new insns", "gain")
	i := 0
	for _, n := range ns {
		for _, t := range threads {
			rh, rp := rs[i], rs[i+1]
			i += 2
			row(fmt.Sprintf("2^%d", log2(n)), t, rh.GNPS, rp.GNPS,
				fmt.Sprintf("%+.1f%%", (rp.GNPS/rh.GNPS-1)*100))
		}
	}
	fmt.Println("\npaper Section 6.1 reports consistent 5-15% gains")
	return nil
}
