package prng

import (
	"math"
	"testing"
	"testing/quick"
)

// meanAndChi2 computes the mean of n samples in [0,1) and a chi-squared
// statistic over 16 equal bins, used as a cheap uniformity check.
func meanAndChi2(s Source, n int) (mean, chi2 float64) {
	const bins = 16
	var counts [bins]int
	var sum float64
	for i := 0; i < n; i++ {
		u := float64(Float32(s))
		sum += u
		b := int(u * bins)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	expected := float64(n) / bins
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	return sum / float64(n), chi2
}

func checkUniform(t *testing.T, name string, s Source) {
	t.Helper()
	mean, chi2 := meanAndChi2(s, 100000)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("%s: mean = %v, want ~0.5", name, mean)
	}
	// 15 dof; chi2 > 60 would be wildly non-uniform.
	if chi2 > 60 {
		t.Errorf("%s: chi2 = %v, too non-uniform", name, chi2)
	}
}

func TestGeneratorsUniform(t *testing.T) {
	checkUniform(t, "xorshift32", NewXorshift32(12345))
	checkUniform(t, "xorshift64", NewXorshift64(12345))
	checkUniform(t, "xorshift128", NewXorshift128(12345))
	checkUniform(t, "mt19937", NewMT19937(12345))
	checkUniform(t, "batch", NewBatch(12345))
}

func TestZeroSeedRemapped(t *testing.T) {
	// A zero state would make xorshift emit zeros forever.
	g32 := NewXorshift32(0)
	g64 := NewXorshift64(0)
	if g32.Uint32() == 0 && g32.Uint32() == 0 {
		t.Error("Xorshift32 zero seed not remapped")
	}
	if g64.Uint32() == 0 && g64.Uint32() == 0 {
		t.Error("Xorshift64 zero seed not remapped")
	}
}

func TestMT19937Reference(t *testing.T) {
	// First outputs for the reference seed 5489, from the published
	// mt19937ar implementation.
	m := NewMT19937(5489)
	want := []uint32{3499211612, 581869302, 3890346734, 3586334585, 545404204}
	for i, w := range want {
		if got := m.Uint32(); got != w {
			t.Fatalf("MT19937 output %d = %d, want %d", i, got, w)
		}
	}
}

func TestMT19937ZeroSeedDefaults(t *testing.T) {
	a := NewMT19937(0)
	b := NewMT19937(5489)
	for i := 0; i < 10; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatal("zero seed should select reference default 5489")
		}
	}
}

func TestDeterminism(t *testing.T) {
	mk := []func() Source{
		func() Source { return NewXorshift32(42) },
		func() Source { return NewXorshift64(42) },
		func() Source { return NewXorshift128(42) },
		func() Source { return NewMT19937(42) },
		func() Source { return NewBatch(42) },
	}
	for _, f := range mk {
		a, b := f(), f()
		for i := 0; i < 100; i++ {
			if a.Uint32() != b.Uint32() {
				t.Fatalf("%T not deterministic at step %d", a, i)
			}
		}
	}
}

func TestBatchMatchesScalarLanes(t *testing.T) {
	// The batch generator's lanes must each follow the xorshift128
	// recurrence independently; consuming 8 words takes exactly one
	// refill of all lanes.
	b := NewBatch(7)
	b.Refill()
	w1 := b.buf
	for i := 0; i < BatchLanes; i++ {
		if got := b.Uint32(); got != w1[i] {
			t.Fatalf("lane %d: Uint32 = %d, buffered %d", i, got, w1[i])
		}
	}
	b.Uint32()
	if b.buf == w1 {
		t.Error("draining did not refill the lanes")
	}
}

func TestSharedPeriod(t *testing.T) {
	c := &Counting{Src: NewXorshift32(9)}
	s, err := NewShared(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Period() != 8 {
		t.Errorf("Period = %d", s.Period())
	}
	var vals []uint32
	for i := 0; i < 24; i++ {
		vals = append(vals, s.Uint32())
	}
	if c.Count() != 3 {
		t.Errorf("underlying draws = %d, want 3 for 24 outputs at period 8", c.Count())
	}
	for i := 0; i < 8; i++ {
		if vals[i] != vals[0] || vals[8+i] != vals[8] || vals[16+i] != vals[16] {
			t.Fatal("values within a period must be identical")
		}
	}
	if vals[0] == vals[8] && vals[8] == vals[16] {
		t.Error("fresh draws should (almost surely) differ")
	}
}

func TestSharedErrors(t *testing.T) {
	if _, err := NewShared(nil, 4); err == nil {
		t.Error("NewShared(nil) should fail")
	}
	if _, err := NewShared(NewXorshift32(1), 0); err == nil {
		t.Error("NewShared(period 0) should fail")
	}
}

func TestSharedPeriodOneMatchesSource(t *testing.T) {
	a := NewXorshift32(77)
	b := NewXorshift32(77)
	s, err := NewShared(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a.Uint32() != s.Uint32() {
			t.Fatal("period-1 Shared must match underlying source")
		}
	}
}

func TestFloat32Range(t *testing.T) {
	check := func(seed uint32) bool {
		g := NewXorshift32(seed)
		for i := 0; i < 100; i++ {
			f := Float32(g)
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestXorshift128FullPeriodSmoke(t *testing.T) {
	// Not a full-period proof, just: no short cycle within 1e5 steps.
	g := NewXorshift128(3)
	seen := make(map[uint32]int, 100000)
	for i := 0; i < 100000; i++ {
		v := g.Uint32()
		if j, ok := seen[v]; ok && i-j < 4 {
			t.Fatalf("suspicious immediate repeat of %d at steps %d and %d", v, j, i)
		}
		seen[v] = i
	}
}

func TestBatchUint64(t *testing.T) {
	// Uint64 must consume the lane stream exactly as two Uint32 calls,
	// from any buffer alignment (including straddling a refill).
	ref := NewBatch(77)
	var words []uint32
	for i := 0; i < 40; i++ {
		words = append(words, ref.Uint32())
	}

	b := NewBatch(77)
	pos := 0
	take32 := func() uint32 {
		w := b.Uint32()
		if w != words[pos] {
			t.Fatalf("word %d: Uint32 = %#x, want %#x", pos, w, words[pos])
		}
		pos++
		return w
	}
	take64 := func() {
		w := b.Uint64()
		want := uint64(words[pos])<<32 | uint64(words[pos+1])
		if w != want {
			t.Fatalf("word %d: Uint64 = %#x, want %#x", pos, w, want)
		}
		pos += 2
	}
	take64() // aligned
	take32() // odd position
	take64() // misaligned
	for pos < 7 {
		take32()
	}
	take64() // straddles the lane refill at word 8
	for i := 0; i < 5; i++ {
		take64()
	}
}

// TestSharedFill8MatchesUint32 pins the block fill against the scalar
// draws: for every period 1..20 and every phase of the reuse window a block
// can start at, 1000 Fill8 calls yield, word for word, what eight Uint32
// calls each would have, draw from the underlying source exactly as often,
// and report a single word only when all eight are equal.
func TestSharedFill8MatchesUint32(t *testing.T) {
	for period := 1; period <= 20; period++ {
		for phase := 0; phase < period; phase++ {
			refSrc := &Counting{Src: NewXorshift32(uint32(period*31 + phase + 1))}
			gotSrc := &Counting{Src: NewXorshift32(uint32(period*31 + phase + 1))}
			ref, _ := NewShared(refSrc, period)
			got, _ := NewShared(gotSrc, period)
			for i := 0; i < phase; i++ {
				ref.Uint32()
				got.Uint32()
			}
			for blk := 0; blk < 1000; blk++ {
				var u [BatchLanes]uint32
				uniform := got.Fill8(&u)
				for l := range u {
					want := ref.Uint32()
					if uniform {
						u[l] = u[0]
					}
					if u[l] != want {
						t.Fatalf("period %d phase %d block %d lane %d: Fill8 %#x (uniform=%v), Uint32 %#x",
							period, phase, blk, l, u[l], uniform, want)
					}
				}
				if gotSrc.Count() != refSrc.Count() {
					t.Fatalf("period %d phase %d block %d: %d draws, want %d",
						period, phase, blk, gotSrc.Count(), refSrc.Count())
				}
			}
		}
	}
}

// TestSharedFillBlocksMatchesUint32 pins the multi-block fill the same way,
// over a Batch source (whose draws Shared inlines) and an opaque one: for
// every period 1..20 and phase, runs of FillBlocks calls of 1..8 blocks,
// each followed by the Fill8 the stopping block falls to, yield the words
// eight Uint32 calls per block would, with as many draws.
func TestSharedFillBlocksMatchesUint32(t *testing.T) {
	for period := 1; period <= 20; period++ {
		for phase := 0; phase < period; phase++ {
			for _, batch := range []bool{false, true} {
				seed := uint64(period*31 + phase + 1)
				src := func() Source {
					if batch {
						return NewBatch(seed)
					}
					return &Counting{Src: NewXorshift32(uint32(seed))}
				}
				ref, _ := NewShared(src(), period)
				got, _ := NewShared(src(), period)
				for i := 0; i < phase; i++ {
					ref.Uint32()
					got.Uint32()
				}
				var words [8]uint32
				for call := 0; call < 200; call++ {
					n := got.FillBlocks(words[:call%8+1])
					var u [BatchLanes]uint32
					for k := 0; k <= n && k <= call%8; k++ {
						one := k < n
						if one {
							u[0] = words[k]
						} else {
							one = got.Fill8(&u)
						}
						for l := range u {
							if one {
								u[l] = u[0]
							}
							if want := ref.Uint32(); u[l] != want {
								t.Fatalf("period %d phase %d batch %v call %d block %d lane %d: %#x, Uint32 %#x",
									period, phase, batch, call, k, l, u[l], want)
							}
						}
					}
				}
				if !batch {
					if g, r := got.src.(*Counting).Count(), ref.src.(*Counting).Count(); g != r {
						t.Fatalf("period %d phase %d: %d draws, want %d", period, phase, g, r)
					}
				}
			}
		}
	}
}

// Counting wraps a Source and counts the words drawn from it, to check
// the amortization behaviour of Shared.
type Counting struct {
	Src Source
	n   int
}

// Uint32 draws from the wrapped source and increments the counter.
func (c *Counting) Uint32() uint32 {
	c.n++
	return c.Src.Uint32()
}

// Count returns the number of words drawn so far.
func (c *Counting) Count() int { return c.n }
