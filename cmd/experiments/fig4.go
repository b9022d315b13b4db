package main

import (
	"fmt"

	"buckwild/internal/dmgc"
	"buckwild/internal/kernels"
	"buckwild/internal/machine"
	"buckwild/internal/metrics"
)

func init() {
	register("fig4a", "hand-optimized SIMD vs compiler-generic throughput (dense)", runFig4a)
	register("fig4b", "sparse small models: hand-optimization can hurt", runFig4b)
	register("fig4c", "average hand-optimization speedup per signature", runFig4c)
}

// variantPoints builds the (generic, hand-optimized) workload pair of a
// signature; every fig4 sweep is a flat list of such pairs.
func variantPoints(sig dmgc.Signature, n, threads int) ([]machine.Workload, error) {
	w, err := machine.SignatureWorkload(sig, n, threads)
	if err != nil {
		return nil, err
	}
	w.Variant = kernels.Generic
	g := w
	w.Variant = kernels.HandOpt
	return []machine.Workload{g, w}, nil
}

func fig4Signatures() []string {
	return []string{"D8M8", "D8M16", "D16M8", "D16M16", "D8M32f", "D16M32f", "D32fM8", "D32fM16", "D32fM32f"}
}

func runFig4a(quick bool) error {
	n := 1 << 20
	if quick {
		n = 1 << 16
	}
	var points []machine.Workload
	for _, name := range fig4Signatures() {
		pair, err := variantPoints(dmgc.MustParse(name), n, 1)
		if err != nil {
			return err
		}
		points = append(points, pair...)
	}
	rs, err := simulateAll(machine.Xeon(), points)
	if err != nil {
		return err
	}
	header("signature", "generic", "hand-opt", "speedup")
	for i, name := range fig4Signatures() {
		g, h := rs[2*i].GNPS, rs[2*i+1].GNPS
		row(name, g, h, h/g)
	}
	fmt.Println("\nthe low-precision signatures gain the most; float gains little (paper Fig 4a, up to 11x)")
	return nil
}

func runFig4b(quick bool) error {
	ns := []int{1 << 8, 1 << 10, 1 << 12, 1 << 14}
	if quick {
		ns = ns[:2]
	}
	var points []machine.Workload
	for _, n := range ns {
		// Single thread isolates the kernel effect: at high thread
		// counts both variants hit the same coherence floor.
		pair, err := variantPoints(dmgc.MustParse("D8i8M8"), n, 1)
		if err != nil {
			return err
		}
		points = append(points, pair...)
	}
	rs, err := simulateAll(machine.Xeon(), points)
	if err != nil {
		return err
	}
	header("model size", "generic", "hand-opt", "handopt/generic")
	for i, n := range ns {
		g, h := rs[2*i].GNPS, rs[2*i+1].GNPS
		row(fmt.Sprintf("2^%d", log2(n)), g, h, h/g)
	}
	fmt.Println("\nratios near or below 1 show vectorized gathers losing for small sparse models (paper Fig 4b)")
	return nil
}

func runFig4c(quick bool) error {
	ns := []int{1 << 12, 1 << 16, 1 << 20}
	threads := []int{1, 18}
	if quick {
		ns = []int{1 << 12, 1 << 16}
		threads = []int{1}
	}
	// Per signature and (n, t) cell: a dense variant pair then a sparse
	// one, with the sparse spelling adding the index term at the dataset
	// width.
	var points []machine.Workload
	for _, name := range fig4Signatures() {
		sig := dmgc.MustParse(name)
		for _, n := range ns {
			for _, t := range threads {
				pair, err := variantPoints(sig, n, t)
				if err != nil {
					return err
				}
				points = append(points, pair...)
				sSig := sig
				sSig.Idx = dmgc.FixedTerm(sig.DatasetBits())
				pair, err = variantPoints(sSig, n, t)
				if err != nil {
					return err
				}
				points = append(points, pair...)
			}
		}
	}
	rs, err := simulateAll(machine.Xeon(), points)
	if err != nil {
		return err
	}
	header("signature", "dense speedup", "sparse speedup")
	i := 0
	for _, name := range fig4Signatures() {
		var dense, sparse []float64
		for range ns {
			for range threads {
				dense = append(dense, rs[i+1].GNPS/rs[i].GNPS)
				sparse = append(sparse, rs[i+3].GNPS/rs[i+2].GNPS)
				i += 4
			}
		}
		dm, err := metrics.GeoMean(dense)
		if err != nil {
			return err
		}
		sm, err := metrics.GeoMean(sparse)
		if err != nil {
			return err
		}
		row(name, dm, sm)
	}
	fmt.Println("\n(geometric mean across model sizes and thread counts, as in paper Fig 4c)")
	return nil
}
