package fixed

import (
	"math"
	"testing"

	"buckwild/internal/prng"
)

// TestCountingVariantsMatchPlain checks the counting contract of the format
// clamp: bit-identical results to Saturate with a nil counter and with a
// live one, and exactly one SiteSaturate event per clamped value.
func TestCountingVariantsMatchPlain(t *testing.T) {
	for _, f := range []Format{Q4, Q8, Q16} {
		var c NumCounts
		var clamped uint64
		for v := int64(-100000); v <= 100000; v += 991 {
			want := f.Saturate(v)
			if got := f.SaturateC(v, &c); got != want {
				t.Fatalf("%v.SaturateC(%d) = %d, want %d", f, v, got, want)
			}
			if got := f.SaturateC(v, nil); got != want {
				t.Fatalf("%v.SaturateC(%d, nil) = %d, want %d", f, v, got, want)
			}
			if int64(want) != v {
				clamped++
			}
		}
		if c.Sat[SiteSaturate] != clamped || c.SatTotal() != clamped {
			t.Fatalf("%v: counted %d clamps (%v), want %d", f, c.Sat[SiteSaturate], c.Sat, clamped)
		}
	}
}

// TestCountingQuantizeMatchesPlain checks that the counting quantizers
// produce the same codes as the plain ones (including unbiased rounding,
// which must consume the random stream identically).
func TestCountingQuantizeMatchesPlain(t *testing.T) {
	for _, f := range []Format{Q4, Q8, Q16} {
		var c NumCounts
		vals := prng.NewXorshift32(99)
		// Separate-but-identically-seeded rounding sources stay in
		// lockstep because the counting variant delegates to the plain
		// quantizer, consuming the stream identically.
		rs1 := prng.NewXorshift32(11)
		rs2 := prng.NewXorshift32(11)
		for i := 0; i < 2000; i++ {
			x := prng.Float32(vals)*6 - 3
			want := f.Quantize(x, Unbiased, rs1)
			got := f.QuantizeC(x, Unbiased, rs2, &c)
			if got != want {
				t.Fatalf("%v.QuantizeC(%g, unbiased) = %d, want %d", f, x, got, want)
			}
			bwant := f.QuantizeBiased(x)
			bgot := f.QuantizeBiasedC(x, &c)
			if bgot != bwant {
				t.Fatalf("%v.QuantizeBiasedC(%g) = %d, want %d", f, x, bgot, bwant)
			}
		}
		if c.BiasN == 0 && c.Sat[SiteQuantize] == 0 {
			t.Fatalf("%v: no bias samples and no quantize saturations counted", f)
		}
	}
}

// TestQuantizeCountsSaturationAndBias pins the counting semantics: values
// beyond the format range count SiteQuantize events (and no bias), values
// in range feed the signed bias accumulator.
func TestQuantizeCountsSaturationAndBias(t *testing.T) {
	f := Q8 // scale 64, range just under [-2, 2)
	var c NumCounts
	if got := f.QuantizeBiasedC(100, &c); got != f.MaxInt() {
		t.Fatalf("QuantizeBiasedC(100) = %d, want %d", got, f.MaxInt())
	}
	if got := f.QuantizeBiasedC(-100, &c); got != f.MinInt() {
		t.Fatalf("QuantizeBiasedC(-100) = %d, want %d", got, f.MinInt())
	}
	if c.Sat[SiteQuantize] != 2 || c.BiasN != 0 {
		t.Fatalf("after saturating converts: Sat[quantize]=%d BiasN=%d, want 2, 0", c.Sat[SiteQuantize], c.BiasN)
	}
	// 0.25 quanta above a grid point: biased rounding rounds down, so the
	// signed error is −0.25 quanta.
	c = NumCounts{}
	x := float32(10.25) / f.Scale()
	if got := f.QuantizeBiasedC(x, &c); got != 10 {
		t.Fatalf("QuantizeBiasedC(10.25q) = %d, want 10", got)
	}
	if c.BiasN != 1 || math.Abs(c.BiasSumQ+0.25) > 1e-3 {
		t.Fatalf("bias after one rounded-down write: N=%d sum=%g, want 1, -0.25", c.BiasN, c.BiasSumQ)
	}
}

// TestUnbiasedBiasNearZero checks the measurement itself: over many
// stochastic roundings of the same off-grid value, the accumulated mean
// bias stays near zero while biased rounding's drifts to the exact offset.
func TestUnbiasedBiasNearZero(t *testing.T) {
	f := Q8
	x := float32(5.3) / f.Scale() // 0.3 quanta above the grid
	rs := prng.NewXorshift32(42)
	var cu, cb NumCounts
	const n = 20000
	for i := 0; i < n; i++ {
		f.QuantizeUnbiasedC(x, rs, &cu)
		f.QuantizeBiasedC(x, &cb)
	}
	if cu.BiasN != n || cb.BiasN != n {
		t.Fatalf("BiasN = %d, %d, want %d", cu.BiasN, cb.BiasN, n)
	}
	meanU := cu.BiasSumQ / float64(cu.BiasN)
	meanB := cb.BiasSumQ / float64(cb.BiasN)
	if math.Abs(meanU) > 0.02 {
		t.Errorf("unbiased mean rounding error %g, want near 0", meanU)
	}
	if math.Abs(meanB-(-0.3)) > 0.01 {
		t.Errorf("biased mean rounding error %g, want near -0.3", meanB)
	}
}

// TestRoundRawCMatchesPlain checks RoundRawC against RoundRaw across
// shifts, modes and formats, with lockstep random sources.
func TestRoundRawCMatchesPlain(t *testing.T) {
	var c NumCounts
	for _, f := range []Format{Q4, Q8, Q16} {
		for _, shift := range []uint{0, 1, 4, 9} {
			rs1 := prng.NewXorshift32(5)
			rs2 := prng.NewXorshift32(5)
			for v := int64(-1 << 20); v <= 1<<20; v += 10007 {
				for _, mode := range []Rounding{Biased, Unbiased} {
					want := f.RoundRaw(v, shift, mode, rs1)
					got := f.RoundRawC(v, shift, mode, rs2, &c)
					if got != want {
						t.Fatalf("%v.RoundRawC(%d, %d, %v) = %d, want %d", f, v, shift, mode, got, want)
					}
					ngot := f.RoundRawC(v, shift, mode, rs2, nil)
					nwant := f.RoundRaw(v, shift, mode, rs1)
					if ngot != nwant {
						t.Fatalf("%v.RoundRawC(%d, %d, %v, nil) = %d, want %d", f, v, shift, mode, ngot, nwant)
					}
				}
			}
		}
	}
	if c.BiasN == 0 {
		t.Fatal("RoundRawC counted no bias samples")
	}
}

// TestNumCountsMerge checks Merge (including nil-safety).
func TestNumCountsMerge(t *testing.T) {
	a := &NumCounts{Underflows: 3, BiasN: 2, BiasSumQ: 0.5}
	a.Sat[SiteMulAdd8to16] = 7
	b := &NumCounts{Underflows: 4, BiasN: 1, BiasSumQ: -0.25}
	b.Sat[SiteMulAdd8to16] = 1
	b.Sat[SiteSaturate] = 9
	a.Merge(b)
	if a.Underflows != 7 || a.BiasN != 3 || a.BiasSumQ != 0.25 {
		t.Fatalf("merged scalars: %+v", a)
	}
	if a.Sat[SiteMulAdd8to16] != 8 || a.Sat[SiteSaturate] != 9 {
		t.Fatalf("merged sites: %v", a.Sat)
	}
	if a.SatTotal() != 17 {
		t.Fatalf("SatTotal = %d, want 17", a.SatTotal())
	}
	var nilC *NumCounts
	nilC.Merge(a) // must not panic
	a.Merge(nil)  // must not panic
	if nilC.SatTotal() != 0 {
		t.Fatal("nil SatTotal should be 0")
	}
}

// TestSiteNames ensures every site has a distinct, stable name (they key
// the exported saturation maps and the Prometheus site label).
func TestSiteNames(t *testing.T) {
	seen := map[string]bool{}
	for s := Site(0); s < NumSites; s++ {
		name := s.String()
		if name == "" || name == "site?" {
			t.Errorf("site %d has no name", s)
		}
		if seen[name] {
			t.Errorf("duplicate site name %q", name)
		}
		seen[name] = true
	}
}
