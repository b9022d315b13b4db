package kernels

import (
	"testing"

	"buckwild/internal/simd"
)

var hw = simd.Haswell()

func denseK(d, m Prec, v Variant, kind QuantKind) *Dense {
	var q *Quantizer
	if m != F32 {
		q = MustQuantizer(m, kind, 8, 1)
	}
	return MustDense(d, m, v, q)
}

func stepCycles(d, m Prec, v Variant, kind QuantKind, n int) float64 {
	s := denseK(d, m, v, kind).StepStream(n)
	return s.Cycles(hw)
}

func TestHandOptBeatsGenericD8M8(t *testing.T) {
	// Section 5.1: the hand-optimized 8-bit kernels are many times
	// cheaper than the compiler code (whose unbiased AXPY is a scalar
	// loop). The paper's "up to 11x" is end-to-end throughput, where
	// memory dampens the gap; the compute-only ratio is larger.
	const n = 1 << 16
	g := stepCycles(I8, I8, Generic, QShared, n)
	h := stepCycles(I8, I8, HandOpt, QShared, n)
	ratio := g / h
	if ratio < 4 || ratio > 40 {
		t.Errorf("generic/handopt cycle ratio = %.2f, want within [4, 40]", ratio)
	}
}

func TestHandOptGainShrinksAtFullPrecision(t *testing.T) {
	// At 32-bit float there is little for hand-optimization to win.
	const n = 1 << 16
	g := stepCycles(F32, F32, Generic, QBiased, n)
	h := stepCycles(F32, F32, HandOpt, QBiased, n)
	if ratio := g / h; ratio > 2 {
		t.Errorf("float generic/handopt ratio = %.2f, should be small", ratio)
	}
	g8 := stepCycles(I8, I8, Generic, QShared, n)
	h8 := stepCycles(I8, I8, HandOpt, QShared, n)
	if g/h > g8/h8 {
		t.Error("hand-optimization should help low precision more than float")
	}
}

func TestLowerPrecisionIsCheaper(t *testing.T) {
	// Compute cycles per step must decrease monotonically with
	// precision for the hand-optimized dense kernels.
	const n = 1 << 16
	c32 := stepCycles(F32, F32, HandOpt, QBiased, n)
	c16 := stepCycles(I16, I16, HandOpt, QShared, n)
	c8 := stepCycles(I8, I8, HandOpt, QShared, n)
	if !(c8 < c16 && c16 < c32) {
		t.Errorf("cycles not monotone: c8=%v c16=%v c32=%v", c8, c16, c32)
	}
}

func TestFourBitRoughlyTwiceEightBit(t *testing.T) {
	// Figure 5c: D4M4 with the proposed ISA is about 2x faster than
	// D8M8 across most settings.
	const n = 1 << 16
	c8 := stepCycles(I8, I8, HandOpt, QShared, n)
	q4 := MustQuantizer(I4, QShared, 8, 1)
	k4 := MustDense(I4, I4, NewInsn, q4)
	c4 := k4.StepStream(n).Cycles(hw)
	ratio := c8 / c4
	if ratio < 1.5 || ratio > 3 {
		t.Errorf("D8M8/D4M4 cycle ratio = %.2f, want ~2", ratio)
	}
}

func TestNewInstructionsHelpModestly(t *testing.T) {
	// Section 6.1: the proposed QDOT8/QAXPY8 reduce the inner loops to
	// one and two compute instructions. The compute-cycle gain is
	// large; the end-to-end throughput gain is only 5-15% because the
	// kernel is memory-bound -- that property is asserted at the
	// machine-model level (package machine). Here we check the compute
	// streams are strictly cheaper and that the loop bodies really
	// shrink to the advertised instruction counts.
	const n = 1 << 16
	h := stepCycles(I8, I8, HandOpt, QHardware, n)
	p := stepCycles(I8, I8, NewInsn, QHardware, n)
	if p >= h {
		t.Errorf("new instructions must cut compute cycles: handopt=%v newinsn=%v", h, p)
	}
	k := denseK(I8, I8, NewInsn, QHardware)
	dot := k.DotStream(n)
	if dot.Count(simd.QDOT8) != int64(n/32) {
		t.Errorf("QDOT8 count = %d, want one per vector", dot.Count(simd.QDOT8))
	}
	axpy := k.AxpyStream(n)
	if axpy.Count(simd.QAXPY8) != int64(n/32) || axpy.Count(simd.PADDSB) != int64(n/32) {
		t.Error("AXPY loop body should be exactly QAXPY8 + PADDSB per vector")
	}
}

func TestPRNGStreamOrdering(t *testing.T) {
	// Figure 5b: biased <= shared <= xorshift << mersenne in cost.
	const n = 1 << 14
	b := denseK(I8, I8, HandOpt, QBiased).AxpyStream(n).Cycles(hw)
	s := denseK(I8, I8, HandOpt, QShared).AxpyStream(n).Cycles(hw)
	x := denseK(I8, I8, HandOpt, QXorshift).AxpyStream(n).Cycles(hw)
	m := denseK(I8, I8, HandOpt, QMersenne).AxpyStream(n).Cycles(hw)
	if !(b <= s && s <= x && x < m) {
		t.Errorf("PRNG cost ordering violated: biased=%v shared=%v xorshift=%v mt=%v", b, s, x, m)
	}
	if m < 5*x {
		t.Errorf("per-write Mersenne (%v) should dwarf vectorized xorshift (%v)", m, x)
	}
	// Sharing brings unbiased rounding close to biased (Section 5.2).
	if s > b*1.25 {
		t.Errorf("shared randomness cost %v should be within 25%% of biased %v", s, b)
	}
}

func TestSparseStreamsNearlyPrecisionFlat(t *testing.T) {
	// Table 2: sparse throughput varies little with precision, because
	// the gather-bound loop dominates.
	const nnz = 1 << 12
	mk := func(d, m Prec) float64 {
		var q *Quantizer
		if m != F32 {
			q = MustQuantizer(m, QShared, 8, 1)
		}
		return mustSparse(d, m, Generic, q, 32).StepStream(nnz).Cycles(hw)
	}
	c32 := mk(F32, F32)
	c8 := mk(I8, I8)
	if ratio := c32 / c8; ratio > 2 {
		t.Errorf("sparse 32f/8 cycle ratio = %.2f, should be close to flat", ratio)
	}
}

func TestSparseHandOptNotMuchBetter(t *testing.T) {
	// Figure 4b/4c: gathers make vectorized sparse code no big win.
	const nnz = 1 << 12
	q1 := MustQuantizer(I8, QShared, 8, 1)
	q2 := MustQuantizer(I8, QShared, 8, 1)
	g := mustSparse(I8, I8, Generic, q1, 32).StepStream(nnz).Cycles(hw)
	h := mustSparse(I8, I8, HandOpt, q2, 32).StepStream(nnz).Cycles(hw)
	if ratio := g / h; ratio > 3 {
		t.Errorf("sparse generic/handopt = %.2f, gather should cap the win", ratio)
	}
}

func TestIndexPrecisionReducesLoads(t *testing.T) {
	const nnz = 1 << 12
	mk := func(bits uint) int64 {
		q := MustQuantizer(I8, QBiased, 0, 1)
		s := mustSparse(I8, I8, HandOpt, q, bits).DotStream(nnz)
		return s.Count(simd.Load256) * simd.VectorBits / 8
	}
	if !(mk(8) < mk(16) && mk(16) < mk(32)) {
		t.Error("narrower indices must load fewer bytes")
	}
}

func TestStreamBytesAccounting(t *testing.T) {
	const n = 1 << 12
	k := denseK(I8, I8, HandOpt, QBiased)
	dot := k.DotStream(n)
	// The dot loads both the dataset vector and the model vector:
	// 2 * n bytes at 8 bits each.
	if got, want := dot.Count(simd.Load256)*simd.VectorBits/8, int64(2*n); got != want {
		t.Errorf("dot loads %d bytes, want %d", got, want)
	}
	axpy := k.AxpyStream(n)
	if got, want := axpy.Count(simd.Store256)*simd.VectorBits/8, int64(n); got != want {
		t.Errorf("axpy stores %d bytes, want %d", got, want)
	}
}

func TestStreamScaleAdd(t *testing.T) {
	var s simd.Stream
	s.Emit(simd.PADDD, 3)
	s.Scale(4)
	if s.Count(simd.PADDD) != 12 {
		t.Error("Scale failed")
	}
	var u simd.Stream
	u.Emit(simd.PADDD, 1)
	u.Add(s)
	if u.Count(simd.PADDD) != 13 {
		t.Error("Add failed")
	}
	if u.Instructions() != 13 {
		t.Error("Instructions failed")
	}
}
