package main

import (
	"fmt"

	"buckwild/internal/core"
	"buckwild/internal/dataset"
	"buckwild/internal/dmgc"
	"buckwild/internal/kernels"
	"buckwild/internal/machine"
)

func init() {
	register("fig6a", "disabling the prefetcher: dense model-size sweep", runFig6a)
	register("fig6b", "disabling the prefetcher: sparse model-size sweep", runFig6b)
	register("fig6c", "obstinate cache: throughput vs obstinacy q (simulator)", runFig6c)
	register("fig6d", "mini-batch size sweep: throughput", runFig6d)
	register("fig6e", "mini-batch size sweep: statistical efficiency", runFig6e)
	register("fig6f", "obstinate cache: statistical efficiency vs q", runFig6f)
}

func prefetchSweep(sigName string, quick bool) error {
	ns := []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}
	if quick {
		ns = []int{1 << 8, 1 << 12, 1 << 16}
	}
	var points []machine.Workload
	for _, n := range ns {
		w, err := machine.SignatureWorkload(dmgc.MustParse(sigName), n, 18)
		if err != nil {
			return err
		}
		w.Prefetch = true
		points = append(points, w)
		w.Prefetch = false
		points = append(points, w)
	}
	rs, err := simulateAll(machine.Xeon(), points)
	if err != nil {
		return err
	}
	header("model size", "prefetch on", "prefetch off", "off/on speedup")
	for i, n := range ns {
		on, off := rs[2*i], rs[2*i+1]
		row(fmt.Sprintf("2^%d", log2(n)), on.GNPS, off.GNPS, off.GNPS/on.GNPS)
	}
	fmt.Println("\nspeedups appear for small (communication-bound) models (paper Fig 6a/6b, up to 150%)")
	return nil
}

func runFig6a(quick bool) error { return prefetchSweep("D8M8", quick) }
func runFig6b(quick bool) error { return prefetchSweep("D8i8M8", quick) }

func runFig6c(quick bool) error {
	ns := []int{1 << 8, 1 << 10, 1 << 12, 1 << 16, 1 << 20}
	if quick {
		ns = []int{1 << 8, 1 << 12, 1 << 16}
	}
	qs := []float64{0, 0.25, 0.5, 0.75, 0.95}
	var points []machine.Workload
	for _, n := range ns {
		for _, q := range qs {
			w, err := machine.SignatureWorkload(dmgc.MustParse("D8M8"), n, 18)
			if err != nil {
				return err
			}
			w.Obstinacy = q
			points = append(points, w)
		}
	}
	rs, err := simulateAll(machine.Xeon(), points)
	if err != nil {
		return err
	}
	cols := []string{"model size"}
	for _, q := range qs {
		cols = append(cols, fmt.Sprintf("q=%.2f", q))
	}
	header(cols...)
	for i, n := range ns {
		cells := []interface{}{fmt.Sprintf("2^%d", log2(n))}
		for j := range qs {
			cells = append(cells, rs[i*len(qs)+j].GNPS)
		}
		row(cells...)
	}
	fmt.Println("\nat q around 0.5 the small-model cost largely disappears (paper Fig 6c)")
	return nil
}

func runFig6d(quick bool) error {
	bs := []int{1, 4, 16, 64, 256}
	ns := []int{1 << 8, 1 << 10, 1 << 12, 1 << 16}
	if quick {
		bs = []int{1, 16, 64}
		ns = []int{1 << 8, 1 << 12}
	}
	var points []machine.Workload
	for _, n := range ns {
		for _, b := range bs {
			w, err := machine.SignatureWorkload(dmgc.MustParse("D8M8"), n, 18)
			if err != nil {
				return err
			}
			w.MiniBatch = b
			points = append(points, w)
		}
	}
	rs, err := simulateAll(machine.Xeon(), points)
	if err != nil {
		return err
	}
	cols := []string{"model size"}
	for _, b := range bs {
		cols = append(cols, fmt.Sprintf("B=%d", b))
	}
	header(cols...)
	for i, n := range ns {
		cells := []interface{}{fmt.Sprintf("2^%d", log2(n))}
		for j := range bs {
			cells = append(cells, rs[i*len(bs)+j].GNPS)
		}
		row(cells...)
	}
	fmt.Println("\nlarge B lifts small models toward the large-model plateau (paper Fig 6d)")
	return nil
}

func runFig6e(quick bool) error {
	m, epochs := 4000, 8
	if quick {
		m, epochs = 1000, 4
	}
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 64, M: m, P: kernels.I8, Seed: 66})
	if err != nil {
		return err
	}
	bs := []int{1, 4, 16, 64, 256}
	// Sequential-sharing trainings are deterministic, so the batch sizes
	// can train concurrently without changing the losses.
	res, err := trainSweep(ds, len(bs), func(i int) core.Config {
		return core.Config{
			Problem: core.Logistic, D: kernels.I8, M: kernels.I8,
			Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
			Threads: 1, MiniBatch: bs[i], StepSize: 0.1, Epochs: epochs,
			Sharing: core.Sequential, Seed: 5,
		}
	})
	if err != nil {
		return err
	}
	header("mini-batch B", "final training loss")
	for i, b := range bs {
		row(b, finalLoss(res[i]))
	}
	fmt.Println("\naccuracy degrades once B is too large for the epoch budget (paper Fig 6e)")
	return nil
}

func runFig6f(quick bool) error {
	m, epochs := 3000, 8
	if quick {
		m, epochs = 1000, 4
	}
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 64, M: m, P: kernels.I8, Seed: 67})
	if err != nil {
		return err
	}
	qs := []float64{0, 0.25, 0.5, 0.75, 0.95}
	// Racy-sharing trainings race by design, so their losses vary run to
	// run regardless of how the sweep is scheduled; each point still
	// trains its own private model (and its own counter shards, which
	// stay exact — only the model races).
	res, err := trainSweep(ds, len(qs), func(i int) core.Config {
		return core.Config{
			Problem: core.Logistic, D: kernels.I8, M: kernels.I8,
			Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
			Threads: 4, StepSize: 0.1, Epochs: epochs,
			Sharing: core.Racy, ObstinateQ: qs[i], Seed: 6,
		}
	})
	if err != nil {
		return err
	}
	header("obstinacy q", "final training loss")
	for i, q := range qs {
		row(fmt.Sprintf("%.2f", q), finalLoss(res[i]))
	}
	fmt.Println("\nno detectable statistical-efficiency loss even at q=0.95 (paper Fig 6f)")
	return nil
}
