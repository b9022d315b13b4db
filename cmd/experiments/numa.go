package main

import (
	"fmt"

	"buckwild/internal/dmgc"
	"buckwild/internal/kernels"
	"buckwild/internal/machine"
	"buckwild/internal/simd"
)

func init() {
	register("numa", "extension: NUMA socket-spreading trade-off (beyond the paper)", runNUMA)
	register("ablations", "extension: design-choice ablations (index precision, locking, PRNG sharing period)", runAblations)
}

func runNUMA(quick bool) error {
	ns := []int{1 << 9, 1 << 12, 1 << 16, 1 << 20, 1 << 21}
	if quick {
		ns = []int{1 << 9, 1 << 20}
	}
	// 24 threads: enough that socket bandwidth, not the per-core
	// streaming limit, binds for large models.
	var points []machine.Workload
	for _, n := range ns {
		w, err := machine.SignatureWorkload(dmgc.MustParse("D8M8"), n, 24)
		if err != nil {
			return err
		}
		points = append(points, w)
		w.Sockets = 2
		points = append(points, w)
	}
	rs, err := simulateAll(machine.Xeon(), points)
	if err != nil {
		return err
	}
	header("model size", "1 socket", "2 sockets", "2s/1s")
	for i, n := range ns {
		r1, r2 := rs[2*i], rs[2*i+1]
		row(fmt.Sprintf("2^%d", log2(n)), r1.GNPS, r2.GNPS, r2.GNPS/r1.GNPS)
	}
	fmt.Println("\nspreading across sockets doubles bandwidth for large models but makes")
	fmt.Println("small-model ping-pong cross the QPI — the DimmWitted-style trade-off the")
	fmt.Println("paper cites for NUMA machines (Zhang and Re)")
	return nil
}

func runAblations(quick bool) error {
	n := 1 << 18
	if quick {
		n = 1 << 14
	}

	idxNames := []string{"D8i8M8", "D8i16M8", "D8i32M8"}
	var points []machine.Workload
	for _, name := range idxNames {
		w, err := machine.SignatureWorkload(dmgc.MustParse(name), n, 1)
		if err != nil {
			return err
		}
		points = append(points, w)
	}
	rs, err := simulateAll(machine.Xeon(), points)
	if err != nil {
		return err
	}
	fmt.Println("-- sparse index precision (Section 3) --")
	header("signature", "GNPS (1t)")
	for i, name := range idxNames {
		row(name, rs[i].GNPS)
	}

	fmt.Println("\n-- randomness sharing period (Section 5.2, compute cycles per element) --")
	cost := simd.Haswell()
	header("period", "axpy cycles/elem", "vs biased")
	qb := kernels.MustQuantizer(kernels.I8, kernels.QBiased, 0, 1)
	kb := kernels.MustDense(kernels.I8, kernels.I8, kernels.HandOpt, qb)
	base := kb.AxpyStream(n).Cycles(cost) / float64(n)
	row("biased", base, 1.0)
	for _, period := range []int{1, 2, 8, 32} {
		q := kernels.MustQuantizer(kernels.I8, kernels.QShared, period, 1)
		k := kernels.MustDense(kernels.I8, kernels.I8, kernels.HandOpt, q)
		c := k.AxpyStream(n).Cycles(cost) / float64(n)
		row(period, c, c/base)
	}
	fmt.Println("\nlarger sharing periods amortize the PRNG; period 8 (one vector per")
	fmt.Println("AXPY refill) already recovers nearly all of the biased-rounding speed")
	return nil
}
