package prng

import (
	"fmt"
	"math"
	"testing"
)

// Statistical quality checks for the generators, used to back the paper's
// Section 5.2 observation that XORSHIFT, while "not very statistically
// reliable" by cryptographic standards, has more than enough quality for
// stochastic rounding (Figure 5a). Each test returns a z-like statistic
// whose magnitude should be small (|z| < ~4) for an adequate generator.

// MonobitZ performs the frequency (monobit) test over n words: the
// fraction of one bits should be 1/2. It returns the normal-approximation
// z statistic.
func MonobitZ(s Source, n int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("prng: MonobitZ needs n >= 1")
	}
	ones := 0
	for i := 0; i < n; i++ {
		v := s.Uint32()
		for v != 0 {
			ones += int(v & 1)
			v >>= 1
		}
	}
	total := float64(n) * 32
	return (float64(ones) - total/2) / math.Sqrt(total/4), nil
}

// RunsZ performs the runs test on the top bit of n outputs: the number of
// runs of consecutive equal bits should match the expectation for a fair
// coin. It returns the z statistic.
func RunsZ(s Source, n int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("prng: RunsZ needs n >= 2")
	}
	prev := s.Uint32() >> 31
	ones := int(prev)
	runs := 1
	for i := 1; i < n; i++ {
		b := s.Uint32() >> 31
		ones += int(b)
		if b != prev {
			runs++
		}
		prev = b
	}
	p := float64(ones) / float64(n)
	if p == 0 || p == 1 {
		return math.Inf(1), nil
	}
	expected := 2*float64(n)*p*(1-p) + 1
	variance := 2 * float64(n) * p * (1 - p) * (2*float64(n)*p*(1-p) - 1) / (float64(n) - 1)
	if variance <= 0 {
		return math.Inf(1), nil
	}
	return (float64(runs) - expected) / math.Sqrt(variance), nil
}

// SerialCorrelation returns the lag-1 correlation of n uniform samples in
// [0, 1); it should be near zero (|r|*sqrt(n) behaves like a z statistic).
func SerialCorrelation(s Source, n int) (float64, error) {
	if n < 3 {
		return 0, fmt.Errorf("prng: SerialCorrelation needs n >= 3")
	}
	xs := make([]float64, n)
	var mean float64
	for i := range xs {
		xs[i] = float64(Float32(s))
		mean += xs[i]
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n-1; i++ {
		num += (xs[i] - mean) * (xs[i+1] - mean)
	}
	for _, x := range xs {
		den += (x - mean) * (x - mean)
	}
	if den == 0 {
		return math.Inf(1), nil
	}
	return num / den, nil
}

// Adequate runs all three tests over n samples and reports whether the
// source passes at roughly the 4-sigma level — a deliberately loose bar:
// stochastic rounding only needs approximate uniformity and independence.
func Adequate(s Source, n int) (bool, error) {
	z1, err := MonobitZ(s, n)
	if err != nil {
		return false, err
	}
	z2, err := RunsZ(s, n)
	if err != nil {
		return false, err
	}
	r, err := SerialCorrelation(s, n)
	if err != nil {
		return false, err
	}
	z3 := r * math.Sqrt(float64(n))
	return math.Abs(z1) < 4 && math.Abs(z2) < 4 && math.Abs(z3) < 4, nil
}

// badLCG is a deliberately weak generator (tiny-modulus LCG) used to show
// the tests have teeth.
type badLCG struct{ s uint32 }

func (g *badLCG) Uint32() uint32 {
	g.s = (g.s*13 + 7) % 64 // period <= 64, top bits nearly constant
	return g.s << 26
}

// constSource always returns the same word.
type constSource struct{}

func (constSource) Uint32() uint32 { return 0xDEADBEEF }

func TestGoodGeneratorsAdequate(t *testing.T) {
	for _, mk := range []struct {
		name string
		src  Source
	}{
		{"xorshift32", NewXorshift32(7)},
		{"xorshift128", NewXorshift128(7)},
		{"mt19937", NewMT19937(7)},
		{"batch", NewBatch(7)},
	} {
		ok, err := Adequate(mk.src, 20000)
		if err != nil {
			t.Fatalf("%s: %v", mk.name, err)
		}
		if !ok {
			t.Errorf("%s judged inadequate", mk.name)
		}
	}
}

func TestBadGeneratorsFail(t *testing.T) {
	if ok, err := Adequate(&badLCG{s: 1}, 20000); err != nil || ok {
		t.Errorf("tiny LCG should fail (ok=%v, err=%v)", ok, err)
	}
	if ok, err := Adequate(constSource{}, 20000); err != nil || ok {
		t.Errorf("constant source should fail (ok=%v, err=%v)", ok, err)
	}
}

func TestMonobitZ(t *testing.T) {
	z, err := MonobitZ(NewXorshift128(3), 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z) > 4 {
		t.Errorf("xorshift monobit z = %v", z)
	}
	z, err = MonobitZ(constSource{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// 0xDEADBEEF has 24 one bits out of 32: heavily biased.
	if math.Abs(z) < 10 {
		t.Errorf("biased source monobit z = %v, should be huge", z)
	}
	if _, err := MonobitZ(constSource{}, 0); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestRunsZ(t *testing.T) {
	z, err := RunsZ(NewMT19937(5), 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z) > 4 {
		t.Errorf("mt19937 runs z = %v", z)
	}
	// A constant top bit gives a degenerate (infinite) statistic.
	z, err = RunsZ(constSource{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(z, 1) {
		t.Errorf("constant-bit runs z = %v, want +Inf", z)
	}
	if _, err := RunsZ(constSource{}, 1); err == nil {
		t.Error("n=1 should fail")
	}
}

func TestSerialCorrelation(t *testing.T) {
	r, err := SerialCorrelation(NewXorshift64(9), 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r)*math.Sqrt(10000) > 4 {
		t.Errorf("xorshift64 serial correlation = %v", r)
	}
	if _, err := SerialCorrelation(NewXorshift64(9), 2); err == nil {
		t.Error("n=2 should fail")
	}
}
