package buckwild

import (
	"runtime"
	"testing"
)

// TestNumStatsPinned pins the numerical-health statistics of seeded
// single-thread runs. The expected values were captured on the commit
// before the counts moved out of the scalar counted kernels and into the
// SWAR loops, so they are the old implementation's answers, bit for bit
// (sum_quanta included: the bias accumulator's summation order is part of
// the contract).
func TestNumStatsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pins captured on amd64; other architectures may fuse float multiply-adds in the loss and gradient-scale path")
	}
	type want struct {
		sat       map[string]uint64
		under     uint64
		samples   uint64
		sumQuanta float64
	}
	tests := []struct {
		name     string
		gen      string // dataset signature; sparse when density > 0
		n, m     int
		density  float64
		dataSeed uint64
		step     float32
		rounding Rounding
		want     want
	}{
		{"dense D8M8", "D8M8", 203, 600, 0, 3, 0.05, "",
			want{nil, 305344, 477456, -194.5062255859375}},
		{"sparse D8i16M8", "D8i16M8", 1000, 900, 0.037, 5, 0.3, "",
			want{map[string]uint64{"saturate": 50}, 34718, 133200, -149.2491455078125}},
		{"dense D16M16", "D16M16", 203, 600, 0, 3, 0.05, "",
			want{nil, 14425, 479283, 17.51629638671875}},
		{"dense D8M16", "D8M16", 203, 600, 0, 3, 0.05, "",
			want{nil, 12300, 479486, -1356.1875}},
		{"dense D16M8", "D16M8", 203, 600, 0, 3, 0.05, "",
			want{nil, 309895, 471975, -987.0112023353577}},
		{"dense D32fM8", "D32fM8", 203, 600, 0, 3, 0.05, "",
			want{nil, 320411, 487200, -433.9027479290596}},
		{"dense D4M4", "D4M4", 203, 600, 0, 3, 0.05, "",
			want{map[string]uint64{"saturate": 441}, 305581, 370881, -612.1659545898438}},
		{"dense D8M8 step 1.5", "D8M8", 203, 600, 0, 3, 1.5, "",
			want{map[string]uint64{"saturate": 52501}, 99883, 397271, 4.18304443359375}},
		{"dense D8M8 biased", "D8M8", 203, 600, 0, 3, 0.05, Biased,
			want{nil, 330280, 482531, -241.504150390625}},
		{"dense D8M8 xorshift", "D8M8", 203, 600, 0, 3, 0.05, UnbiasedXorshift,
			want{nil, 301605, 473599, -534.7138061523438}},
		{"sparse D16i16M16", "D16i16M16", 1000, 900, 0.037, 5, 0.3, "",
			want{map[string]uint64{"saturate": 95}, 382, 133200, -110.03692626953125}},
		{"sparse D8i8M16", "D8i8M16", 200, 900, 0.1, 5, 0.3, "",
			want{map[string]uint64{"saturate": 474}, 159, 72000, -191.828125}},
		{"sparse D32fi32M8", "D32fi32M8", 1000, 900, 0.037, 5, 0.3, "",
			want{map[string]uint64{"saturate": 56}, 35712, 133200, -28.995249559486638}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var ds Dataset
			var err error
			if tc.density > 0 {
				ds, err = GenerateSparse(tc.gen, tc.n, tc.m, tc.density, tc.dataSeed)
			} else {
				ds, err = GenerateDense(tc.gen, tc.n, tc.m, tc.dataSeed)
			}
			if err != nil {
				t.Fatal(err)
			}
			res, err := Train(Config{
				Signature: tc.gen, Rounding: tc.rounding, Threads: 1, Epochs: 4,
				StepSize: tc.step, Seed: 9, NumHealth: true,
			}, ds)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats == nil || res.Stats.NumHealth == nil {
				t.Fatal("NumHealth run returned no Stats.NumHealth")
			}
			ns := res.Stats.NumHealth
			var total uint64
			for site, n := range tc.want.sat {
				if ns.SatBySite[site] != n {
					t.Errorf("saturations[%s] = %d, want %d", site, ns.SatBySite[site], n)
				}
				total += n
			}
			if ns.Saturations != total || len(ns.SatBySite) != len(tc.want.sat) {
				t.Errorf("saturations = %d by site %v, want %d by site %v", ns.Saturations, ns.SatBySite, total, tc.want.sat)
			}
			if ns.Underflows != tc.want.under {
				t.Errorf("underflows = %d, want %d", ns.Underflows, tc.want.under)
			}
			if ns.Bias.Samples != tc.want.samples {
				t.Errorf("bias samples = %d, want %d", ns.Bias.Samples, tc.want.samples)
			}
			if ns.Bias.SumQuanta != tc.want.sumQuanta {
				t.Errorf("bias sum_quanta = %v, want %v", ns.Bias.SumQuanta, tc.want.sumQuanta)
			}
		})
	}
}
