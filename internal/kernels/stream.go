package kernels

import (
	"buckwild/internal/simd"
)

// This file builds the simd.Stream instruction streams that describe what
// each kernel variant executes per invocation. Streams are static functions
// of the kernel configuration and the element count, so they are computed by
// analysis rather than instrumented execution; the machine model converts
// them to cycles.

func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// vecs returns the number of full vector registers needed to hold n
// elements of precision p.
func vecs(n int64, p Prec) int64 {
	return ceilDiv(n*int64(p.Bits()), simd.VectorBits)
}

// widenOp returns the sign-extension opcode that widens precision p to
// 32-bit lanes.
func widenOp(p Prec) simd.Opcode {
	if p == I16 {
		return simd.PMOVSXWD
	}
	return simd.PMOVSXBD
}

// emitWidenToF32 emits the load + sign-extend + convert sequence that
// expands n elements of precision p into float32 lanes (the pattern GCC
// emits for every low-precision operand).
func emitWidenToF32(s *simd.Stream, p Prec, n int64) {
	nv32 := vecs(n, F32)
	s.Emit(simd.Load256, vecs(n, p))
	if !p.IsFloat() {
		s.Emit(widenOp(p), nv32)
		s.Emit(simd.CVTDQ2PS, nv32)
	}
}

// emitPRNG charges the pseudorandom-bit generation cost of a quantizer kind
// for nRoundVecs vector-register-sized batches of roundings (Section 5.2).
// One XORSHIFT refill (3 xors + 3 shifts) yields 256 fresh bits, enough for
// one batch. vectorized selects the hand-written AVX2 XORSHIFT; compiler-
// generated code calls the generator once per rounded element on the scalar
// side — which is exactly why unbiased rounding is expensive without the
// Section 5.2 optimizations.
func emitPRNG(s *simd.Stream, kind QuantKind, period int, nRoundVecs, nElems int64, vectorized bool) {
	switch kind {
	case QBiased, QHardware:
		// No software randomness.
	case QMersenne:
		// One MT19937 draw per rounded number; the twist plus
		// tempering costs roughly a dozen scalar ops per word.
		s.Emit(simd.ScalarALU, 12*nElems)
		s.Emit(simd.ScalarMul, 2*nElems)
	case QXorshift:
		if !vectorized {
			s.Emit(simd.ScalarALU, 4*nElems)
			return
		}
		s.Emit(simd.PXOR, 3*nRoundVecs)
		s.Emit(simd.PSLLD, 3*nRoundVecs)
	case QShared:
		if period < 1 {
			period = 8
		}
		if !vectorized {
			// Reuse amortizes the generator but not the per-element
			// branch and extraction.
			s.Emit(simd.ScalarALU, 2*nElems)
			return
		}
		refills := ceilDiv(nRoundVecs, int64(period))
		s.Emit(simd.PXOR, 3*refills)
		s.Emit(simd.PSLLD, 3*refills)
	}
}

// DotStream returns the instruction stream of one dense dot over n elements.
func (k *Dense) DotStream(n int) simd.Stream {
	var s simd.Stream
	nn := int64(n)
	nv32 := vecs(nn, F32)
	switch {
	case k.V == Generic:
		// Widen both operands to float, multiply, accumulate.
		emitWidenToF32(&s, k.D, nn)
		emitWidenToF32(&s, k.M, nn)
		s.Emit(simd.MULPS, nv32)
		s.Emit(simd.ADDPS, nv32)
	case k.D.IsFloat() || k.M.IsFloat():
		// Hand-optimized mixed path: widen the integer side (if any),
		// then FMA.
		emitWidenToF32(&s, k.D, nn)
		emitWidenToF32(&s, k.M, nn)
		s.Emit(simd.FMADDPS, nv32)
	case k.D == I4 && k.M == I4:
		// 4-bit fused pipeline (proposed ISA; Figure 5c): the same
		// shape as the 8-bit loop at twice the lane count.
		nv := vecs(nn, I4)
		s.Emit(simd.Load256, 2*nv)
		s.Emit(simd.PMADD4, nv)
		s.Emit(simd.PADD4, nv)
		s.Emit(simd.PMADDWD, ceilDiv(nv, 4))
		s.Emit(simd.PADDD, ceilDiv(nv, 4))
	case k.D.Bits() <= 8 && k.M.Bits() <= 8:
		nv := vecs(nn, I8)
		s.Emit(simd.Load256, 2*nv)
		if k.V == NewInsn {
			// QDOT8 fuses the multiply and horizontal add.
			s.Emit(simd.QDOT8, nv)
			s.Emit(simd.PADDD, nv)
		} else {
			// vpmaddubsw with the standard igemm trick: pair sums
			// accumulate in 16-bit lanes for a few iterations, and
			// only every fourth vector widens to 32 bits.
			s.Emit(simd.PMADDUBSW, nv)
			s.Emit(simd.PADDSW, nv)
			s.Emit(simd.PMADDWD, ceilDiv(nv, 4))
			s.Emit(simd.PADDD, ceilDiv(nv, 4))
		}
	default:
		// 16-bit lanes (I16xI16 or mixed I8/I16): the narrower
		// operand widens to 16 bits, then vpmaddwd.
		nv16 := vecs(nn, I16)
		s.Emit(simd.Load256, vecs(nn, k.D)+vecs(nn, k.M))
		if k.D.Bits() < 16 || k.M.Bits() < 16 {
			s.Emit(simd.PMOVSXBW, nv16)
		}
		s.Emit(simd.PMADDWD, nv16)
		s.Emit(simd.PADDD, nv16)
	}
	// Horizontal reduction tail and conversion to a scalar float.
	s.Emit(simd.HADDPS, 3)
	s.Emit(simd.CVTDQ2PS, 1)
	s.Emit(simd.ScalarALU, 2)
	return s
}

// AxpyStream returns the instruction stream of one dense AXPY over n
// elements, including the quantizer's randomness cost.
func (k *Dense) AxpyStream(n int) simd.Stream {
	var s simd.Stream
	nn := int64(n)
	nv32 := vecs(nn, F32)
	kind, period := QBiased, 0
	if k.Q != nil {
		kind, period = k.Q.Kind, k.Q.Period
	}
	switch {
	case k.M.IsFloat():
		// Plain FMA into the float model; no rounding.
		emitWidenToF32(&s, k.D, nn)
		s.Emit(simd.Load256, nv32)
		s.Emit(simd.FMADDPS, nv32)
		s.Emit(simd.Store256, nv32)
	case k.V == Generic && kind.Unbiased():
		// Compiler-generated unbiased AXPY: the rand() call inside the
		// loop body defeats auto-vectorization entirely, so every
		// element pays a scalar load/fma/quantize/store sequence plus
		// the generator (Section 5.2's motivating pathology).
		s.Emit(simd.ScalarALU, 12*nn)
		s.Emit(simd.ScalarMul, 3*nn)
		emitPRNG(&s, kind, period, vecs(nn, k.M), nn, false)
	case k.V == Generic:
		// Biased rounding vectorizes: widen x and w to float, FMA via
		// mul+add, then the float quantization pipeline: scale, add
		// the 0.5 offset, convert, pack down to the model width,
		// store.
		emitWidenToF32(&s, k.D, nn)
		emitWidenToF32(&s, k.M, nn)
		s.Emit(simd.MULPS, nv32)
		s.Emit(simd.ADDPS, nv32)
		s.Emit(simd.MULPS, nv32) // scale to raw units
		s.Emit(simd.ADDPS, nv32) // rounding offset
		s.Emit(simd.CVTPS2DQ, nv32)
		s.Emit(simd.PACKSSDW, vecs(nn, I16))
		if k.M.Bits() <= 8 {
			s.Emit(simd.PACKSSWB, vecs(nn, I8))
		}
		s.Emit(simd.Store256, vecs(nn, k.M))
	case k.V == NewInsn && k.D == I4 && k.M == I4:
		// Proposed 4-bit pipeline: the paper assumes 4-bit multiply,
		// add and FMA with the latencies of their 8-bit equivalents,
		// so the loop has the same shape as the 8-bit integer AXPY at
		// half the vector count (exactly 2x throughput, Figure 5c).
		nv := vecs(nn, I4)
		s.Emit(simd.PBROADCAST, 1)
		s.Emit(simd.Load256, 2*nv)
		s.Emit(simd.PMUL4, 2*nv) // rounding multiply in 8-bit lanes
		s.Emit(simd.PADD4, 2*nv) // rounding vector add
		s.Emit(simd.PACKSSWB, nv)
		s.Emit(simd.PADD4, nv) // add into the model
		s.Emit(simd.Store256, nv)
		emitPRNG(&s, kind, period, nv, nn, true)
	case k.V == NewInsn && k.M.Bits() <= 8 && k.D.Bits() <= 8:
		// QAXPY8: multiply by scalar, hardware stochastic round,
		// truncate -- one instruction; then saturating add and store.
		nv := vecs(nn, I8)
		s.Emit(simd.Load256, 2*nv)
		s.Emit(simd.QAXPY8, nv)
		s.Emit(simd.PADDSB, nv)
		s.Emit(simd.Store256, nv)
	case !k.D.IsFloat():
		// Hand-optimized integer pipeline. Narrow operands use
		// sign-extending loads (vpmovsxbw ymm, m128) so no separate
		// widening instruction is needed; vpmulhrsw multiplies by the
		// broadcast scalar and performs the rounding shift in one
		// instruction; the rounding vector is added in 16-bit lanes;
		// results pack down to the model width and accumulate with a
		// saturating add.
		nv16 := vecs(nn, I16)
		s.Emit(simd.PBROADCAST, 1)
		s.Emit(simd.Load256, vecs(nn, k.D)+vecs(nn, k.M))
		s.Emit(simd.PMULHRSW, nv16)
		s.Emit(simd.PADDSW, nv16) // rounding vector add
		if k.M.Bits() <= 8 {
			s.Emit(simd.PACKSSWB, vecs(nn, I8))
			s.Emit(simd.PADDSB, vecs(nn, I8))
		} else {
			s.Emit(simd.PADDSW, vecs(nn, I16))
		}
		s.Emit(simd.Store256, vecs(nn, k.M))
		emitPRNG(&s, kind, period, vecs(nn, k.M), nn, true)
	default:
		// Float dataset, fixed-point model (D32fM8/M16). This
		// combination has no efficient AVX2 mapping: the product is
		// computed in float but every model write must be scaled,
		// randomized, converted and packed into narrow lanes with a
		// different width than the inputs, and the paper's Table 2
		// shows these signatures collapsing well below pure float
		// (0.203-0.208 vs 0.936 GNPS). We model the write pipeline as
		// per-element scalar quantization, which reproduces that
		// collapse.
		s.Emit(simd.Load256, nv32+vecs(nn, k.M))
		s.Emit(simd.MULPS, nv32)
		s.Emit(simd.ScalarMul, 5*nn)  // scale, convert and reinsert per element
		s.Emit(simd.ScalarALU, 24*nn) // extract, offset, clamp, pack, loop
		s.Emit(simd.Store256, vecs(nn, k.M))
		emitPRNG(&s, kind, period, vecs(nn, k.M), nn, false)
	}
	return s
}

// scalarGlue is the per-iteration scalar section of a logistic-regression
// SGD step: computing the label margin, the sigmoid-like scaling factor and
// the step size multiply (Section 2: "negligible scalar computations").
func scalarGlue(s *simd.Stream) {
	s.Emit(simd.ScalarALU, 6)
	s.Emit(simd.ScalarMul, 3)
	s.Emit(simd.ScalarDiv, 1) // exp/logistic approximation
}

// StepStream returns the instruction stream of one full dense SGD step
// (dot + scalar glue + AXPY) over a model of size n.
func (k *Dense) StepStream(n int) simd.Stream {
	s := k.DotStream(n)
	scalarGlue(&s)
	s.Add(k.AxpyStream(n))
	return s
}

// DotStream returns the instruction stream of one sparse dot over nnz
// nonzeros. Sparse kernels are gather-bound; the hand-optimized variant
// uses vpgatherdd (slow on Haswell), which is why its advantage over the
// scalar code is small (Table 2) and can invert for small models (Fig 4b).
func (k *Sparse) DotStream(nnz int) simd.Stream {
	var s simd.Stream
	n := int64(nnz)
	if k.V == Generic {
		// Scalar loop: load index, load value, gather model word,
		// multiply, accumulate, loop overhead.
		s.Emit(simd.ScalarALU, 5*n)
		s.Emit(simd.ScalarMul, n)
		return s
	}
	// Vectorized gather loop over batches of 8 nonzeros. Partial final
	// batches need mask construction, which is significant when each
	// example has only a handful of nonzeros (Figure 4b).
	nb := ceilDiv(n, 8)
	s.Emit(simd.Load256, ceilDiv(n*int64(k.IdxBits), simd.VectorBits)) // indices
	s.Emit(simd.Load256, vecs(n, k.D))                                 // values
	s.Emit(simd.GATHERD, nb)                                           // model gather
	s.Emit(simd.PBLEND, nb)                                            // tail masking
	s.Emit(simd.ScalarALU, 2*nb)                                       // mask setup
	if !k.D.IsFloat() {
		s.Emit(widenOp(k.D), nb)
	}
	if !k.M.IsFloat() {
		s.Emit(simd.CVTDQ2PS, nb)
	}
	s.Emit(simd.FMADDPS, nb)
	s.Emit(simd.HADDPS, 3)
	s.Emit(simd.ScalarALU, 2)
	return s
}

// AxpyStream returns the instruction stream of one sparse AXPY over nnz
// nonzeros. Scatter has no AVX2 instruction, so even the hand-optimized
// variant stores the updated model words one at a time.
func (k *Sparse) AxpyStream(nnz int) simd.Stream {
	var s simd.Stream
	n := int64(nnz)
	kind, period := QBiased, 0
	if k.Q != nil {
		kind, period = k.Q.Kind, k.Q.Period
	}
	if k.V == Generic {
		s.Emit(simd.ScalarALU, 6*n)
		s.Emit(simd.ScalarMul, 2*n)
		if k.M != F32 {
			emitPRNG(&s, kind, period, ceilDiv(n*int64(k.M.Bits()), simd.VectorBits), n, false)
		}
		return s
	}
	nb := ceilDiv(n, 8)
	s.Emit(simd.Load256, ceilDiv(n*int64(k.IdxBits), simd.VectorBits))
	s.Emit(simd.Load256, vecs(n, k.D))
	s.Emit(simd.GATHERD, nb)
	s.Emit(simd.MULPS, nb)
	if k.M != F32 {
		s.Emit(simd.ADDPS, nb) // rounding offset
		s.Emit(simd.CVTPS2DQ, nb)
		emitPRNG(&s, kind, period, nb, n, true)
	}
	s.Emit(simd.PADDD, nb)
	s.Emit(simd.ScalarALU, 8*nb) // scalar scatter of the updated words
	return s
}

// StepStream returns the instruction stream of one full sparse SGD step
// over nnz nonzeros.
func (k *Sparse) StepStream(nnz int) simd.Stream {
	s := k.DotStream(nnz)
	scalarGlue(&s)
	s.Add(k.AxpyStream(nnz))
	return s
}
