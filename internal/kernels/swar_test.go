package kernels

import (
	"fmt"
	"math"
	"testing"

	"buckwild/internal/fixed"
	"buckwild/internal/prng"
)

// setScalar forces (or restores) the scalar reference path and returns a
// restore function, so differential tests can run the same inputs down
// both pipelines.
func setScalar(t *testing.T, scalar bool) {
	t.Helper()
	old := swarOn
	swarOn = !scalar
	t.Cleanup(func() { swarOn = old })
}

// fillRawVec fills v with pseudorandom raw values spanning the full format
// range (including the extremes, which exercise every saturation path).
func fillRawVec(v Vec, seed uint64) {
	f := v.P.Fixed()
	g := prng.NewXorshift64(seed)
	span := uint64(int64(f.MaxInt()) - int64(f.MinInt()) + 1)
	for i := 0; i < v.Len(); i++ {
		v.SetRaw(i, int32(int64(f.MinInt())+int64(g.Uint64()%span)))
	}
}

var swarKinds = []QuantKind{QBiased, QMersenne, QXorshift, QShared, QHardware}

// swarLens includes ragged tails (n mod 8 != 0), sub-word lengths and
// word-aligned lengths.
var swarLens = []int{1, 3, 7, 8, 9, 13, 16, 31, 64, 100}

// TestDenseSwarMatchesScalar is the differential gate for the tentpole:
// over every D x M x Variant x rounding-kind combination and a spread of
// lengths, the SWAR word path must produce bit-identical dots and model
// words to the retained scalar reference, and a counted (NumCounts) run —
// which takes the scalar counting path — must match both bit-for-bit
// (PRNG lockstep parity).
func TestDenseSwarMatchesScalar(t *testing.T) {
	t.Run("windows", func(t *testing.T) { checkWindows(t, false, false) })
	precs := []Prec{I8, I16, I4}
	seed := uint64(0xD1FF)
	for _, d := range precs {
		for _, m := range precs {
			for _, v := range []Variant{Generic, HandOpt, NewInsn} {
				if v == NewInsn && !(d == I8 || d == I4) {
					continue
				}
				for _, kind := range swarKinds {
					for _, n := range swarLens {
						seed++
						name := fmt.Sprintf("D%v/M%v/%v/%v/n%d", d, m, v, kind, n)
						runDensePair(t, name, d, m, v, kind, n, seed)
					}
				}
			}
		}
	}
}

// runDensePair runs dot+axpy+dot three ways (SWAR, scalar, counted) on
// identical inputs and fresh same-seeded quantizers, then compares bits.
func runDensePair(t *testing.T, name string, d, m Prec, v Variant, kind QuantKind, n int, seed uint64) {
	t.Helper()
	x := NewVec(d, n)
	w0 := NewVec(m, n)
	fillRawVec(x, seed*3+1)
	fillRawVec(w0, seed*5+2)
	const a1, a2 = 0.371, -1.044

	run := func(scalar, counted bool) (uint64, Vec) {
		setScalar(t, scalar)
		q := MustQuantizer(m, kind, 0, seed)
		k := MustDense(d, m, v, q)
		if counted {
			nc := &fixed.NumCounts{}
			q.Num = nc
			k.Num = nc
		}
		w := w0.Clone()
		d1 := k.Dot(x, w)
		k.Axpy(a1, x, w)
		k.Axpy(a2, x, w) // second call stresses lane-buffer carry-over
		d2 := k.Dot(x, w)
		return uint64(math.Float32bits(d1))<<32 | uint64(math.Float32bits(d2)), w
	}

	dotSwar, wSwar := run(false, false)
	dotRef, wRef := run(true, false)
	dotCnt, wCnt := run(false, true)

	if dotSwar != dotRef {
		t.Errorf("%s: dot bits differ: swar %#x scalar %#x", name, dotSwar, dotRef)
	}
	if dotCnt != dotRef {
		t.Errorf("%s: counted dot bits differ: counted %#x scalar %#x", name, dotCnt, dotRef)
	}
	for i := 0; i < n; i++ {
		if wSwar.Raw(i) != wRef.Raw(i) {
			t.Fatalf("%s: w[%d]: swar %d scalar %d", name, i, wSwar.Raw(i), wRef.Raw(i))
		}
		if wCnt.Raw(i) != wRef.Raw(i) {
			t.Fatalf("%s: w[%d]: counted %d scalar %d", name, i, wCnt.Raw(i), wRef.Raw(i))
		}
	}
}

// TestSparseSwarMatchesScalar is the sparse analogue, with duplicate
// indices in the block so the scatter ordering contract is exercised.
func TestSparseSwarMatchesScalar(t *testing.T) {
	t.Run("windows", func(t *testing.T) { checkWindows(t, true, false) })
	precs := []Prec{I8, I16}
	seed := uint64(0x5EED5)
	const wlen = 37
	for _, d := range precs {
		for _, m := range precs {
			for _, kind := range swarKinds {
				for _, nnz := range swarLens {
					seed++
					name := fmt.Sprintf("D%v/M%v/%v/nnz%d", d, m, kind, nnz)

					idx := make([]int32, nnz)
					g := prng.NewXorshift64(seed)
					for j := range idx {
						idx[j] = int32(g.Uint64() % wlen)
					}
					if nnz >= 2 {
						idx[1] = idx[0] // force a duplicate inside a block
					}
					x := NewVec(d, nnz)
					w0 := NewVec(m, wlen)
					fillRawVec(x, seed*7+3)
					fillRawVec(w0, seed*11+4)

					run := func(scalar, counted bool) (uint64, Vec) {
						setScalar(t, scalar)
						q := MustQuantizer(m, kind, 0, seed)
						k := mustSparse(d, m, HandOpt, q, 16)
						if counted {
							nc := &fixed.NumCounts{}
							q.Num = nc
							k.Num = nc
						}
						w := w0.Clone()
						d1 := k.Dot(idx, x, w)
						k.Axpy(0.371, idx, x, w)
						k.Axpy(-0.58, idx, x, w)
						d2 := k.Dot(idx, x, w)
						return uint64(math.Float32bits(d1))<<32 | uint64(math.Float32bits(d2)), w
					}

					dotSwar, wSwar := run(false, false)
					dotRef, wRef := run(true, false)
					dotCnt, wCnt := run(false, true)
					if dotSwar != dotRef || dotCnt != dotRef {
						t.Errorf("%s: dot bits differ: swar %#x counted %#x scalar %#x", name, dotSwar, dotCnt, dotRef)
					}
					for i := 0; i < wlen; i++ {
						if wSwar.Raw(i) != wRef.Raw(i) || wCnt.Raw(i) != wRef.Raw(i) {
							t.Fatalf("%s: w[%d]: swar %d counted %d scalar %d", name, i, wSwar.Raw(i), wCnt.Raw(i), wRef.Raw(i))
						}
					}
				}
			}
		}
	}
}

// TestVecWordView pins the Vec backing-store contract: on little-endian
// hosts fixed-point vectors expose a uint64 word view aliasing the element
// slice, zero-padded past n, with lane i of word w holding element
// 8*w+i (int8) or 4*w+i (int16).
func TestVecWordView(t *testing.T) {
	if !swarLE {
		t.Skip("big-endian host: no word view")
	}
	v := NewVec(I8, 11)
	if len(v.w64) != 2 {
		t.Fatalf("w64 words = %d, want 2", len(v.w64))
	}
	v.SetRaw(0, -2)
	v.SetRaw(9, 3)
	if byte(v.w64[0]) != 0xFE {
		t.Errorf("lane 0 = %#x, want 0xfe", byte(v.w64[0]))
	}
	if byte(v.w64[1]>>8) != 3 {
		t.Errorf("word 1 lane 1 = %#x, want 3", byte(v.w64[1]>>8))
	}
	if v.w64[1]>>24 != 0 {
		t.Errorf("padding lanes not zero: %#x", v.w64[1])
	}

	h := NewVec(I16, 5)
	h.SetRaw(4, -1)
	if uint16(h.w64[1]) != 0xFFFF || h.w64[1]>>16 != 0 {
		t.Errorf("I16 word 1 = %#x, want 0xffff in lane 0 only", h.w64[1])
	}

	c := v.Clone()
	if c.w64 == nil {
		t.Error("Clone dropped the word view")
	}
	c.SetRaw(0, 7)
	if v.Raw(0) != -2 {
		t.Error("Clone aliases the original")
	}

	var lanes [8]int32
	v.SetRaw(8, -128)
	v.lanes8(1, &lanes)
	if lanes[0] != -128 || lanes[1] != 3 || lanes[2] != 0 {
		t.Errorf("lanes8 = %v", lanes[:3])
	}
}

// addends lays down, through the fused AXPY's chunk fetch, the rounding
// addends of the next len(d) RoundRaw calls by shift 32-up, each scaled by
// 2^up, one per lane: d is a whole number of 8-lane blocks.
func (q *Quantizer) addends(d []int64, up uint) {
	var c [chunkLanes]int64
	for len(d) > 0 {
		n := min(len(d), len(c))
		m := q.chunkAddends(&c, n, up)
		for j := range d[:n] {
			d[j] = c[j&m]
		}
		d = d[n:]
	}
}

// TestAddendsLockstep verifies the block entry point of the fused AXPY loop
// consumes the rounding-word stream exactly as scalar draws do, for any
// grouping — including misaligned interleavings of scalar and block calls
// — and lays down the low shift bits of each word, scaled to bit 32.
func TestAddendsLockstep(t *testing.T) {
	const n, shift = 40, 14
	for _, kind := range []QuantKind{QMersenne, QXorshift, QShared, QHardware} {
		for _, period := range []int{0, 1, 3, 32} {
			ref := MustQuantizer(I8, kind, period, 42)
			want := make([]int64, n)
			for i := range want {
				want[i] = int64(ref.rand()&(1<<shift-1)) << (32 - shift)
			}

			vec := MustQuantizer(I8, kind, period, 42)
			got := make([]int64, n)
			scalar := func(i int) { got[i] = int64(vec.rand()&(1<<shift-1)) << (32 - shift) }
			// 3 scalar, one block (misaligned), two more at once, tail.
			for i := 0; i < 3; i++ {
				scalar(i)
			}
			vec.addends(got[3:11], 32-shift)
			vec.addends(got[11:27], 32-shift)
			for i := 27; i < n; i++ {
				scalar(i)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%v period %d: addend %d: scalar %#x, grouped %#x", kind, period, i, want[i], got[i])
				}
			}
		}
	}
	half := make([]int64, 8)
	MustQuantizer(I8, QBiased, 0, 1).addends(half, 32-shift)
	for i, v := range half {
		if v != 1<<31 {
			t.Errorf("nearest rounding: addend %d = %#x, want half a quantum 1<<31", i, v)
		}
	}
}

// TestQuantizeBlockLockstep verifies blocked and elementwise quantization
// are interchangeable bit-for-bit.
func TestQuantizeBlockLockstep(t *testing.T) {
	xs := randFloats(37, 7, 1.5)
	for _, kind := range swarKinds {
		qa := MustQuantizer(I8, kind, 0, 9)
		qb := MustQuantizer(I8, kind, 0, 9)
		want := make([]int32, len(xs))
		for i, x := range xs {
			want[i] = qa.Quantize(x)
		}
		got := make([]int32, len(xs))
		qb.QuantizeBlock(xs[:16], got[:16])
		qb.QuantizeBlock(xs[16:], got[16:])
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v: value %d: elementwise %d, blocked %d", kind, i, want[i], got[i])
			}
		}
	}
}

// TestQuantizeScalarABoundaries pins the tie rule of the broadcast-scalar
// conversion: round half away from zero, exactly, at every boundary the
// 16-bit a-lane can express (the conversion scales by 2^14 in float64,
// which is exact for every float32, so ties are decided with no double
// rounding — matching the hand-optimized AVX2 kernel's host-side lane
// preparation).
func TestQuantizeScalarABoundaries(t *testing.T) {
	const quantum = 1.0 / (1 << aqFrac)
	cases := []struct {
		a    float32
		want int32
	}{
		{0, 0},
		{quantum, 1},
		{-quantum, -1},
		{0.5 * quantum, 1},           // exact tie: away from zero
		{-0.5 * quantum, -1},         // exact negative tie: away from zero
		{1.5 * quantum, 2},           // tie above one quantum
		{-1.5 * quantum, -2},         //
		{0.25 * quantum, 0},          // below the tie: truncates to zero
		{-0.25 * quantum, 0},         //
		{1.25 * quantum, 1},          // above a boundary but below the next tie
		{32766.5 * quantum, 32767},   // last in-range tie rounds up to MaxInt
		{32767.5 * quantum, 32767},   // tie at 32768 saturates
		{2.0, 32767},                 // +2.0 overflows the lane and clamps
		{-2.0, -32768},               // -2.0 is exactly MinInt
		{-32768.5 * quantum, -32768}, // tie below MinInt saturates
		{3e5, 32767},
		{-3e5, -32768},
		{5e-8, 0}, // far below half a quantum
	}
	for _, c := range cases {
		if got := quantizeScalarA(c.a); got != c.want {
			t.Errorf("quantizeScalarA(%g) = %d, want %d", c.a, got, c.want)
		}
	}
}

// TestAxpyAllocatesNothing: the block path's chunk buffer stays on the
// stack — an integer AXPY, dense or sparse, counted or not, allocates
// nothing.
func TestAxpyAllocatesNothing(t *testing.T) {
	const n = 100
	x, w := NewVec(I8, n), NewVec(I16, n)
	fillRawVec(x, 1)
	idx := sparseIdx(n, n, 2)
	for _, counted := range []bool{false, true} {
		q := MustQuantizer(I16, QShared, 8, 3)
		dk, sk := MustDense(I8, I16, HandOpt, q), mustSparse(I8, I16, HandOpt, q, 16)
		if counted {
			q.Num = &fixed.NumCounts{}
			dk.Num, sk.Num = q.Num, q.Num
		}
		a := float32(0.371)
		if got := testing.AllocsPerRun(50, func() {
			dk.Axpy(a, x, w)
			sk.Axpy(a, idx, x, w)
			a = -a
		}); got != 0 {
			t.Errorf("counted=%v: dense + sparse Axpy allocate %v objects, want 0", counted, got)
		}
	}
}
