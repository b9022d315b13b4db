package main

import (
	"fmt"

	"buckwild/internal/dmgc"
	"buckwild/internal/machine"
)

func init() {
	register("fig2", "throughput bounds as model size changes (D8M8, 18 threads)", runFig2)
	register("fig3", "measured vs model-predicted throughput across threads and precisions", runFig3)
}

func sizes(quick bool) []int {
	if quick {
		return []int{1 << 8, 1 << 12, 1 << 16, 1 << 20}
	}
	out := []int{}
	for p := 8; p <= 24; p += 2 {
		out = append(out, 1<<uint(p))
	}
	return out
}

// fig2Points builds the (18 threads, 1 thread) pair per model size; the
// fitting pass of fig3 sweeps the identical grid.
func fig2Points(ns []int) ([]machine.Workload, error) {
	var points []machine.Workload
	for _, n := range ns {
		w, err := machine.SignatureWorkload(dmgc.MustParse("D8M8"), n, 18)
		if err != nil {
			return nil, err
		}
		points = append(points, w)
		w.Threads = 1
		points = append(points, w)
	}
	return points, nil
}

func runFig2(quick bool) error {
	mc := machine.Xeon()
	ns := sizes(quick)
	points, err := fig2Points(ns)
	if err != nil {
		return err
	}
	rs, err := simulateAll(mc, points)
	if err != nil {
		return err
	}
	header("model size", "GNPS (18t)", "GNPS (1t)", "bound", "regime (model)")
	pm := dmgc.DefaultPerfModel()
	for i, n := range ns {
		r18, r1 := rs[2*i], rs[2*i+1]
		row(fmt.Sprintf("2^%d", log2(n)), r18.GNPS, r1.GNPS, r18.Bound, pm.Regime(n).String())
	}
	fmt.Println("\ncommunication-bound below the knee, bandwidth-bound plateau above (paper Fig 2)")
	return nil
}

func runFig3(quick bool) error {
	mc := machine.Xeon()
	sigNames := []string{"D8M8", "D16M16", "D32fM32f"}
	sparseNames := []string{"D8i8M8", "D16i16M16", "D32fi32M32f"}
	threads := []int{1, 18}
	ns := sizes(quick)

	// Fit the performance model's p(n) to the simulated machine at 18
	// threads, exactly as the paper fits equation (3) to its Xeon.
	fitPoints, err := fig2Points(ns)
	if err != nil {
		return err
	}
	fitRs, err := simulateAll(mc, fitPoints)
	if err != nil {
		return err
	}
	var fitSizes []int
	var fitSpeedups []float64
	for i, n := range ns {
		fitSizes = append(fitSizes, n)
		fitSpeedups = append(fitSpeedups, fitRs[2*i].GNPS/fitRs[2*i+1].GNPS)
	}
	pb, kappa, err := dmgc.FitP(fitSizes, fitSpeedups, 18)
	if err != nil {
		return err
	}
	fmt.Printf("fitted p(n) = %.3f * n/(n + %.0f)\n\n", pb, kappa)

	run := func(names []string, sparse bool) error {
		kind := "dense"
		if sparse {
			kind = "sparse"
		}
		// Per signature: the single-thread base point at the largest
		// size, then the full (threads x sizes) grid, all fanned out
		// in one sweep.
		perSig := 1 + len(threads)*len(ns)
		var points []machine.Workload
		for _, name := range names {
			sig := dmgc.MustParse(name)
			wBase, err := machine.SignatureWorkload(sig, ns[len(ns)-1], 1)
			if err != nil {
				return err
			}
			points = append(points, wBase)
			for _, t := range threads {
				for _, n := range ns {
					w, err := machine.SignatureWorkload(sig, n, t)
					if err != nil {
						return err
					}
					points = append(points, w)
				}
			}
		}
		rs, err := simulateAll(mc, points)
		if err != nil {
			return err
		}
		fmt.Printf("-- %s --\n", kind)
		header("signature", "threads", "model size", "simulated", "predicted", "rel.err")
		var pred, meas []float64
		for si, name := range names {
			sig := dmgc.MustParse(name)
			// Base throughput from the simulated machine at the
			// largest size.
			rBase := rs[si*perSig]
			pm := &dmgc.PerfModel{PBandwidth: pb, Kappa: kappa, RegimeKnee: 256 << 10,
				T1: func(dmgc.Signature) (float64, error) { return rBase.GNPS, nil }}
			i := si*perSig + 1
			for _, t := range threads {
				for _, n := range ns {
					r := rs[i]
					i++
					p, err := pm.Throughput(sig, n, t)
					if err != nil {
						return err
					}
					rel := 0.0
					if r.GNPS > 0 {
						rel = (p - r.GNPS) / r.GNPS
					}
					pred = append(pred, p)
					meas = append(meas, r.GNPS)
					row(name, t, fmt.Sprintf("2^%d", log2(n)), r.GNPS, p, fmt.Sprintf("%+.0f%%", rel*100))
				}
			}
		}
		frac, err := dmgc.Validate(pred, meas, 0.5)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %.0f%% of configurations within 50%% (paper reports 90%%)\n\n", kind, frac*100)
		return nil
	}
	if err := run(sigNames, false); err != nil {
		return err
	}
	return run(sparseNames, true)
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
