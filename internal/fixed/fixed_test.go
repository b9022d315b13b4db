package fixed

import (
	"math"
	"testing"
	"testing/quick"

	"buckwild/internal/prng"
)

func TestFormatBounds(t *testing.T) {
	cases := []struct {
		f          Format
		maxI, minI int32
	}{
		{Q4, 7, -8},
		{Q8, 127, -128},
		{Q16, 32767, -32768},
		{Q32, math.MaxInt32, math.MinInt32},
	}
	for _, c := range cases {
		if got := c.f.MaxInt(); got != c.maxI {
			t.Errorf("%v MaxInt = %d, want %d", c.f, got, c.maxI)
		}
		if got := c.f.MinInt(); got != c.minI {
			t.Errorf("%v MinInt = %d, want %d", c.f, got, c.minI)
		}
		if !c.f.Valid() {
			t.Errorf("%v should be valid", c.f)
		}
	}
}

func TestQuantizeBiasedRoundsToNearest(t *testing.T) {
	f := Q8 // scale 64
	cases := []struct {
		x    float32
		want int32
	}{
		{0, 0},
		{1.0 / 64, 1},
		{0.4 / 64, 0},
		{0.6 / 64, 1},
		{-0.6 / 64, -1},
		{1, 64},
		{-1, -64},
		{100, 127},   // saturate high
		{-100, -128}, // saturate low
	}
	for _, c := range cases {
		if got := f.QuantizeBiased(c.x); got != c.want {
			t.Errorf("QuantizeBiased(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestQuantizeBiasedNaN(t *testing.T) {
	if got := Q8.QuantizeBiased(float32(math.NaN())); got != 0 {
		t.Errorf("QuantizeBiased(NaN) = %d, want 0", got)
	}
	rs := prng.NewXorshift32(1)
	if got := Q8.QuantizeUnbiased(float32(math.NaN()), rs); got != 0 {
		t.Errorf("QuantizeUnbiased(NaN) = %d, want 0", got)
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	// Values exactly representable in the format must round-trip under
	// both rounding modes.
	rs := prng.NewXorshift32(7)
	for _, f := range []Format{Q4, Q8, Q16} {
		for v := f.MinInt(); v <= f.MaxInt(); v++ {
			x := f.Dequantize(v)
			if got := f.QuantizeBiased(x); got != v {
				t.Fatalf("%v: biased round-trip of raw %d: got %d", f, v, got)
			}
			if got := f.QuantizeUnbiased(x, rs); got != v {
				t.Fatalf("%v: unbiased round-trip of raw %d: got %d", f, v, got)
			}
		}
	}
}

func TestQuantizeUnbiasedIsUnbiased(t *testing.T) {
	// E[Q(x)] must equal x*scale for in-range x. Check a value exactly
	// halfway between representable points: mean should be ~0.5 above
	// the floor.
	f := Q8
	x := 2.5 / 64.0 // halfway between raw 2 and raw 3
	rs := prng.NewXorshift32(99)
	const n = 200000
	var sum int64
	for i := 0; i < n; i++ {
		sum += int64(f.QuantizeUnbiased(float32(x), rs))
	}
	mean := float64(sum) / n
	if math.Abs(mean-2.5) > 0.01 {
		t.Errorf("unbiased rounding mean = %v, want ~2.5", mean)
	}
}

func TestQuantizeUnbiasedNeverFar(t *testing.T) {
	// Stochastic rounding may only move to one of the two neighbouring
	// representable values.
	f := Q8
	rs := prng.NewXorshift32(3)
	for i := 0; i < 1000; i++ {
		x := (prng.Float32(rs)*4 - 2) // in [-2, 2)
		got := f.QuantizeUnbiased(x, rs)
		lo := int32(math.Floor(float64(x) * 64))
		hi := lo + 1
		if got != f.Saturate(int64(lo)) && got != f.Saturate(int64(hi)) {
			t.Fatalf("QuantizeUnbiased(%v) = %d, want %d or %d", x, got, lo, hi)
		}
	}
}

func TestQuantizeModes(t *testing.T) {
	src := []float32{0.5, -0.25, 1.5, -2}
	want := []int32{32, -16, 96, -128}
	rs := prng.NewXorshift32(5)
	for i, x := range src {
		if got := Q8.Quantize(x, Biased, nil); got != want[i] {
			t.Errorf("biased Quantize(%v) = %d, want %d", x, got, want[i])
		}
		// Every input is exactly representable, so unbiased agrees.
		if got := Q8.Quantize(x, Unbiased, rs); got != want[i] {
			t.Errorf("unbiased Quantize(%v) = %d, want %d", x, got, want[i])
		}
	}
}

func TestRoundRaw(t *testing.T) {
	// Requantize from Q16 (frac 14) down to Q8 (frac 6): shift 8.
	f := Q8
	shift := uint(Q16.Frac - Q8.Frac)
	if got := f.RoundRaw(256, shift, Biased, nil); got != 1 {
		t.Errorf("RoundRaw(256) = %d, want 1", got)
	}
	if got := f.RoundRaw(127, shift, Biased, nil); got != 0 {
		t.Errorf("RoundRaw(127) = %d, want 0 (rounds down)", got)
	}
	if got := f.RoundRaw(128, shift, Biased, nil); got != 1 {
		t.Errorf("RoundRaw(128) = %d, want 1 (ties up)", got)
	}
	if got := f.RoundRaw(1<<30, shift, Biased, nil); got != f.MaxInt() {
		t.Errorf("RoundRaw(huge) = %d, want saturation at %d", got, f.MaxInt())
	}
	if got := f.RoundRaw(42, 0, Biased, nil); got != 42 {
		t.Errorf("RoundRaw shift=0 = %d, want 42", got)
	}
}

func TestRoundRawUnbiasedMean(t *testing.T) {
	f := Q8
	rs := prng.NewXorshift32(11)
	shift := uint(8)
	v := int64(384) // 1.5 quanta after shift
	const n = 100000
	var sum int64
	for i := 0; i < n; i++ {
		sum += int64(f.RoundRaw(v, shift, Unbiased, rs))
	}
	mean := float64(sum) / n
	if math.Abs(mean-1.5) > 0.02 {
		t.Errorf("RoundRaw unbiased mean = %v, want ~1.5", mean)
	}
}

func TestQuantizePropertyBiasedError(t *testing.T) {
	// Property: biased quantization error is at most half a quantum for
	// in-range inputs.
	f := Q16
	check := func(x float32) bool {
		if x != x || x > f.MaxReal() || x < f.MinReal() {
			return true // out of scope
		}
		got := f.Dequantize(f.QuantizeBiased(x))
		return math.Abs(float64(got-x)) <= float64(f.Quantum())/2+1e-9
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuantizePropertySaturation(t *testing.T) {
	// Property: quantization never escapes the representable raw range.
	rs := prng.NewXorshift32(17)
	check := func(x float32, unbiased bool) bool {
		for _, f := range []Format{Q4, Q8, Q16} {
			var v int32
			if unbiased {
				v = f.QuantizeUnbiased(x, rs)
			} else {
				v = f.QuantizeBiased(x)
			}
			if v > f.MaxInt() || v < f.MinInt() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFormatString(t *testing.T) {
	if got := Q8.String(); got != "Q8.6" {
		t.Errorf("Q8.String() = %q", got)
	}
	if got := Biased.String(); got != "biased" {
		t.Errorf("Biased.String() = %q", got)
	}
	if got := Unbiased.String(); got != "unbiased" {
		t.Errorf("Unbiased.String() = %q", got)
	}
}
