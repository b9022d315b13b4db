package kernels

import (
	"fmt"
	"unsafe"

	"buckwild/internal/fixed"
)

// Variant selects the implementation style of a kernel (Section 5.1/6.1).
type Variant int

const (
	// Generic mirrors compiler-generated code: widen everything to
	// float32, compute in float, quantize per element on write.
	Generic Variant = iota
	// HandOpt mirrors the hand-written AVX2 code: fused widening integer
	// multiply-adds for the dot, an integer rounding pipeline for AXPY.
	HandOpt
	// NewInsn is HandOpt executed with the Section 6.1 proposed
	// instructions (QDOT8/QAXPY8 and the 4-bit family). Numerically it
	// equals HandOpt; only the instruction stream differs.
	NewInsn
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Generic:
		return "generic"
	case HandOpt:
		return "handopt"
	case NewInsn:
		return "newinsn"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// aqFrac is the fixed-point fraction used for the broadcast scalar a in the
// integer AXPY pipeline (the scalar is held in a 16-bit lane with 14
// fractional bits, range [-2, 2)).
const aqFrac = 14

// Dense computes dot and AXPY over dense vectors at the configured dataset
// precision D and model precision M.
type Dense struct {
	D, M Prec
	V    Variant
	// Q quantizes model writes; required iff M != F32.
	Q *Quantizer
	// Num, when non-nil, receives the worker's numerical-health counts
	// (saturation per site, underflows). The same loops serve both
	// settings: clamps are counted on the branches that already handle
	// them and folded into Num after the loop; set Q.Num to the same
	// block to also count quantization bias.
	Num *fixed.NumCounts
}

// NewDense validates and builds a dense kernel.
func NewDense(d, m Prec, v Variant, q *Quantizer) (*Dense, error) {
	if m != F32 && q == nil {
		return nil, fmt.Errorf("kernels: model precision %v requires a quantizer", m)
	}
	if m == F32 && q != nil {
		return nil, fmt.Errorf("kernels: float model takes no quantizer")
	}
	if v == NewInsn && !(d == I8 || d == I4) {
		return nil, fmt.Errorf("kernels: proposed instructions cover 8- and 4-bit datasets, not %v", d)
	}
	return &Dense{D: d, M: m, V: v, Q: q}, nil
}

// MustDense is NewDense that panics on error.
func MustDense(d, m Prec, v Variant, q *Quantizer) *Dense {
	k, err := NewDense(d, m, v, q)
	if err != nil {
		panic(err)
	}
	return k
}

// intPath reports whether the hand-optimized integer pipeline applies:
// both operands fixed point.
func (k *Dense) intPath() bool {
	return k.V != Generic && !k.D.IsFloat() && !k.M.IsFloat()
}

// Dot returns the inner product of the dataset vector x (precision D) and
// the model vector w (precision M) as a real number.
func (k *Dense) Dot(x, w Vec) float32 {
	n := x.Len()
	if w.Len() != n {
		panic(fmt.Sprintf("kernels: Dot length mismatch %d != %d", n, w.Len()))
	}
	if k.intPath() {
		return k.dotInt(&x, &w, n)
	}
	// Float path (generic, or hand-optimized FMA when either side is
	// float): widen to float32 and accumulate.
	var sum float32
	for i := 0; i < n; i++ {
		sum += x.At(i) * w.At(i)
	}
	return sum
}

// dotInt is the fused widening-multiply-add pipeline. For 8-bit (and 4-bit)
// inputs it reproduces vpmaddubsw semantics: adjacent pairs multiply exactly
// into 16 bits and their sum saturates at 16 bits (each clamp is one
// SiteMulAdd8to16 event); pair sums are then accumulated exactly. For 16-bit
// inputs (vpmaddwd) the pair products accumulate exactly into 32 bits and
// there is nothing to count. Mixed widths widen the narrower operand first
// (exact).
func (k *Dense) dotInt(x, w *Vec, n int) float32 {
	var acc int64
	if k.D.Bits() <= 8 && k.M.Bits() <= 8 {
		// vpmaddubsw: pairwise 8x8->16 with saturating pair add. Whole
		// words go through the SWAR body (four pairs per uint64 load);
		// word boundaries fall on pair boundaries, so the ragged tail
		// continues the identical pairing.
		var sat uint64
		i := 0
		if swarOn && k.D == I8 && k.M == I8 && x.w64 != nil && w.w64 != nil {
			nw := n >> 3
			acc, sat = dotSwar8(x.w64[:nw], w.w64[:nw])
			i = nw << 3
		}
		for ; i+1 < n; i += 2 {
			p0 := int32(x.Raw(i)) * int32(w.Raw(i))
			p1 := int32(x.Raw(i+1)) * int32(w.Raw(i+1))
			acc += int64(clampPair(p0+p1, &sat))
		}
		if i < n {
			acc += int64(int32(x.Raw(i)) * int32(w.Raw(i)))
		}
		if k.Num != nil {
			k.Num.Sat[fixed.SiteMulAdd8to16] += sat
		}
	} else if swarOn && k.D == I16 && k.M == I16 && x.w64 != nil && w.w64 != nil {
		// vpmaddwd over words: four exact 16x16->32 products per load,
		// accumulated exactly (order-independent, so bit-identity with
		// the scalar loop is structural).
		nw := n >> 2
		acc = dotSwar16(x.w64[:nw], w.w64[:nw])
		for i := nw << 2; i < n; i++ {
			acc += int64(x.Raw(i)) * int64(w.Raw(i))
		}
	} else {
		// vpmaddwd path (covers I16xI16 and mixed I8/I16): products are
		// exact in 32 bits and pair sums are exact in 32 bits.
		for i := 0; i < n; i++ {
			acc += int64(x.Raw(i)) * int64(w.Raw(i))
		}
	}
	return float32(acc) * k.D.Fixed().Quantum() * k.M.Fixed().Quantum()
}

// dotSwar8 is the word-parallel body of the 8-bit dot pipeline: each
// uint64 holds eight int8 lanes, i.e. four vpmaddubsw pairs. Lanes are
// extracted by shifts, pair products widen exactly into 32 bits, and the
// pair sum saturates at int16 exactly as the scalar reference does. It
// returns the accumulated sum and the number of pair sums that clamped.
func dotSwar8(xw, ww []uint64) (acc int64, sat uint64) {
	for i, a := range xw {
		b := ww[i]
		s0 := clampPair(int32(int8(a))*int32(int8(b))+int32(int8(a>>8))*int32(int8(b>>8)), &sat)
		s1 := clampPair(int32(int8(a>>16))*int32(int8(b>>16))+int32(int8(a>>24))*int32(int8(b>>24)), &sat)
		s2 := clampPair(int32(int8(a>>32))*int32(int8(b>>32))+int32(int8(a>>40))*int32(int8(b>>40)), &sat)
		s3 := clampPair(int32(int8(a>>48))*int32(int8(b>>48))+int32(int8(a>>56))*int32(int8(b>>56)), &sat)
		acc += int64(s0) + int64(s1) + int64(s2) + int64(s3)
	}
	return acc, sat
}

// clampPair saturates a vpmaddubsw pair sum at the int16 bounds, bumping
// *sat on the (rare) clamping branches.
func clampPair(s int32, sat *uint64) int32 {
	if s > 32767 {
		*sat++
		return 32767
	}
	if s < -32768 {
		*sat++
		return -32768
	}
	return s
}

// dotSwar16 is the word-parallel body of the 16-bit dot pipeline: four
// int16 lanes per uint64, exact products, exact accumulation.
func dotSwar16(xw, ww []uint64) int64 {
	var acc int64
	for i, a := range xw {
		b := ww[i]
		acc += int64(int16(a))*int64(int16(b)) +
			int64(int16(a>>16))*int64(int16(b>>16)) +
			int64(int16(a>>32))*int64(int16(b>>32)) +
			int64(int16(a>>48))*int64(int16(b>>48))
	}
	return acc
}

// Axpy performs the model update w <- round(w + a*x) elementwise, where the
// rounding into the model format follows the kernel's quantizer. For float
// models this is a plain fused multiply-add with no rounding step.
func (k *Dense) Axpy(a float32, x, w Vec) {
	n := x.Len()
	if w.Len() != n {
		panic(fmt.Sprintf("kernels: Axpy length mismatch %d != %d", n, w.Len()))
	}
	switch {
	case k.M.IsFloat():
		for i := 0; i < n; i++ {
			w.F32[i] += a * x.At(i)
		}
	case k.V != Generic && !k.D.IsFloat():
		axpyInt(k.Q, k.Num, a, nil, &x, &w)
	case k.V != Generic: // float dataset, fixed model
		// Hand-optimized float->fixed pipeline: the product is
		// stochastically rounded to a model-format delta, which is
		// added with saturation (this is the semantics of the
		// proposed QAXPY8 instruction as well).
		fm := k.M.Fixed()
		c := k.Num
		for i := 0; i < n; i++ {
			p := a * x.At(i)
			delta := k.Q.Quantize(p)
			if c != nil && delta == 0 && p != 0 {
				c.Underflows++
			}
			w.SetRaw(i, fm.SaturateC(int64(w.Raw(i))+int64(delta), c))
		}
	default:
		// Generic: recompute w + a*x in float and round the sum.
		for i := 0; i < n; i++ {
			w.Set(i, w.At(i)+a*x.At(i), k.Q)
		}
	}
}

// axpyInt is the all-integer AXPY pipeline, dense (nil idx) or sparse (x
// holds the nonzeros of positions idx): the scalar a is quantized once
// into a 16-bit lane with aqFrac fractional bits; each product
// x_raw * a_raw is a wide integer whose model-format value is recovered by
// a rounding right-shift (stochastic or nearest per the quantizer); the
// delta is added to the model with saturation. This mirrors the
// vpmullw / add-random-vector / truncate sequence of Section 6.1.
//
// Health counts come out of the same loop: a dropped whole update (the
// scalar underflowing its 16-bit lane) and per-element deltas that round
// to zero count as underflows, the model write clamp counts under
// SiteSaturate, and RoundRaw feeds the bias accumulator through q.Num.
//
// x and w are pointers so that no call copies the Vec headers.
func axpyInt(q *Quantizer, c *fixed.NumCounts, a float32, idx []int32, x, w *Vec) {
	aq := quantizeScalarA(a)
	if aq == 0 {
		// The scalar underflowed the a-lane format; the hand-optimized
		// kernel genuinely performs no update in this case.
		if c != nil && a != 0 {
			c.Underflows++
		}
		return
	}
	fm := w.P.Fixed()
	shift := x.P.Fixed().Frac + aqFrac - fm.Frac
	i := 0
	if swarOn && q.Fmt == fm {
		i = axpySwar(q, c, int64(aq), shift, idx, x, w)
	}
	// Scalar reference loop; also finishes the ragged tail (n mod 8) of
	// the block path, popping the same rounding-lane stream it would.
	for n := x.Len(); i < n; i++ {
		p := i
		if idx != nil {
			p = int(idx[i])
		}
		wide := int64(x.Raw(i)) * int64(aq)
		delta := q.RoundRaw(wide, shift)
		if c != nil && delta == 0 && wide != 0 {
			c.Underflows++
		}
		w.SetRaw(p, fm.SaturateC(int64(w.Raw(p))+int64(delta), c))
	}
}

// axpySwar runs the block pipeline of the integer AXPY at the operands'
// lane widths and returns how many elements it processed: a multiple of 8,
// or none at a width the pipeline does not cover (I4). A nil idx is the
// dense AXPY; otherwise x holds the nonzeros of positions idx.
func axpySwar(q *Quantizer, c *fixed.NumCounts, a int64, shift uint, idx []int32, x, w *Vec) int {
	switch {
	case x.P == I8 && w.P == I8:
		return axpyFused(q, c, a, shift, idx, x.I8, w.I8)
	case x.P == I8 && w.P == I16:
		return axpyFused(q, c, a, shift, idx, x.I8, w.I16)
	case x.P == I16 && w.P == I8:
		return axpyFused(q, c, a, shift, idx, x.I16, w.I8)
	case x.P == I16 && w.P == I16:
		return axpyFused(q, c, a, shift, idx, x.I16, w.I16)
	}
	return 0
}

// axpyFused is that pipeline, one loop for dense and sparse, counted or
// not. Product and addend are scaled by 2^(32-shift) so the rounding shift
// is the constant 32. Elements go through in chunks of up to 64: the
// quantizer lays down the chunk's rounding addends (one per 8-lane block
// while a QShared window or nearest rounding gives each block a single
// word, else one per lane), and roundWrite turns each lane into the delta
// (x*a + add) >> 32, clamped into the model format, and adds it to the
// model with saturation. That is RoundRaw followed by SaturateC with the
// bounds, the mask and the mode hoisted, so values are bit-identical to
// the scalar loop; lanes are written in element order, so duplicate sparse
// indices read each other's writes.
//
// The health counts fold into the counter blocks once per call: each clamp
// is one SiteSaturate event, and the bias numerator is an exact integer
// (see roundWrite). Every term RoundRawUC adds is that integer over 2^32,
// a multiple of 2^-shift below 1 in magnitude, so its float64 partial sums
// are exact while |BiasSumQ| < 2^(53-shift) and adding the call's total
// instead yields the same bits (up to 2^31 roundings per call keep the
// integer sum in range).
func axpyFused[X, W int8 | int16](q *Quantizer, c *fixed.NumCounts, a int64, shift uint, idx []int32, xs []X, ws []W) int {
	up := 32 - shift
	a <<= up
	counted := c != nil || q.Num != nil
	var t tally
	var adds [chunkLanes]int64
	n8 := len(xs) &^ 7
	for i := 0; i < n8; i += chunkLanes {
		xc := xs[i:min(i+chunkLanes, n8)]
		m := q.chunkAddends(&adds, len(xc), up)
		wc, ic := ws, idx
		if idx == nil {
			wc = ws[i:]
		} else {
			ic = idx[i:]
		}
		if counted {
			t = roundWrite[X, W, tally](t, xc, wc, ic, &adds, m, a)
		} else {
			t = roundWrite[X, W, noTally](t, xc, wc, ic, &adds, m, a)
		}
	}
	if qc := q.Num; qc != nil {
		qc.Sat[fixed.SiteSaturate] += uint64(t.roundClamps)
		qc.BiasN += uint64(int64(n8) - t.roundClamps)
		qc.BiasSumQ += float64(t.bias) / (1 << 32)
	}
	if c != nil {
		c.Sat[fixed.SiteSaturate] += uint64(t.writeClamps)
		c.Underflows += uint64(t.under)
	}
	return n8
}

// tally holds the health counts of the fused AXPY's lanes.
type tally struct {
	roundClamps, writeClamps int64 // deltas and model sums that clamped
	under                    int64 // zero deltas of nonzero inputs
	bias                     int64 // rounding-bias numerator, units of 2^-32
}

// noTally stands for no health counts. roundWrite takes the kind of tally
// as a type parameter so that the uncounted AXPY runs an instance of the
// loop with the counting compiled out: counting behind a run-time flag in
// the one loop spills its registers and slows the uncounted AXPY, and
// counting in a second pass over the chunk slows the counted one (DESIGN
// §10).
type noTally struct{}

// tallyKind is roundWrite's tally parameter: tally counts, noTally not.
type tallyKind interface{ noTally | tally }

// roundWrite rounds each lane j of xc and adds the delta to its model
// element (ws[j], or ws[idx[j]] for a sparse update), both clamped to W's
// range, which is the model format's; lane j's rounding addend is
// adds[j&m]. Unless T is noTally it returns t plus the lanes' clamps,
// underflows and bias numerator. A lane's bias term is its rounded delta
// minus the exact one, r<<32 - x*a; a clamped delta is a bound, never
// zero, and has none. x == 0 forces a zero delta, so underflows are zero
// deltas minus zero inputs, and x*a is zero exactly when x is (a is never
// zero here). The clamps are rare: the clamp branches count in every
// instance, which also keeps the compiler from making them conditional
// moves that every lane would pay for. The dense and the sparse loop
// differ only in the model index.
func roundWrite[X, W int8 | int16, T tallyKind](t tally, xc []X, ws []W, idx []int32, adds *[chunkLanes]int64, m int, a int64) tally {
	// Constants in each instance: whether it counts, and W's upper bound.
	var kind T
	counted := unsafe.Sizeof(kind) != 0
	hi := int64(1)<<(8*unsafe.Sizeof(W(0))-1) - 1
	m &= chunkLanes - 1
	rc, wc, under, bias := t.roundClamps, t.writeClamps, t.under, t.bias
	if idx == nil {
		ws = ws[:len(xc)]
		for j, xv := range xc {
			xa := int64(xv) * a
			r := (xa + adds[j&m]) >> 32
			if int64(W(r)) != r {
				r = hi ^ r>>63 // the bound on r's side
				rc++
				bias -= r<<32 - xa // cancels the term counted below
			}
			if counted {
				bias += r<<32 - xa
				under += b2i(r == 0) - b2i(xa == 0)
			}
			s := int64(ws[j]) + r
			if int64(W(s)) != s {
				s = hi ^ s>>63
				wc++
			}
			ws[j] = W(s)
		}
	} else {
		idx = idx[:len(xc)]
		for j, xv := range xc {
			p := idx[j]
			xa := int64(xv) * a
			r := (xa + adds[j&m]) >> 32
			if int64(W(r)) != r {
				r = hi ^ r>>63 // the bound on r's side
				rc++
				bias -= r<<32 - xa // cancels the term counted below
			}
			if counted {
				bias += r<<32 - xa
				under += b2i(r == 0) - b2i(xa == 0)
			}
			s := int64(ws[p]) + r
			if int64(W(s)) != s {
				s = hi ^ s>>63
				wc++
			}
			ws[p] = W(s)
		}
	}
	return tally{rc, wc, under, bias}
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag set, so
// counting a frequent condition costs no branch and no conditional-move
// chain.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// quantizeScalarA rounds the AXPY scalar into its 16-bit broadcast lane
// (frac aqFrac), saturating at the lane bounds. Ties round half away from
// zero: the scale by 2^aqFrac is exact in float64 for every float32 input,
// so a value landing exactly on k+0.5 lane quanta becomes k+1 (positive)
// or -(k+1) (negative) with no double-rounding — the same conversion the
// hand-optimized AVX2 kernel performs on the host when it prepares the
// broadcast lane, which is why this helper is shared by every integer
// AXPY variant. TestQuantizeScalarABoundaries pins the boundary cases.
func quantizeScalarA(a float32) int32 {
	scaled := float64(a) * float64(int64(1)<<aqFrac)
	if scaled >= 0 {
		scaled += 0.5
	} else {
		scaled -= 0.5
	}
	v := int64(scaled)
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int32(v)
}
