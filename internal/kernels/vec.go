// Package kernels implements the dot-product and AXPY kernels that dominate
// the cost of an SGD step (Section 2 of the paper), for every combination of
// dataset and model precision in the DMGC space.
//
// Each kernel exists in two variants mirroring Section 5.1:
//
//   - Generic: the computation a compiler produces from straightforward
//     C++ — every low-precision input is widened to 32-bit float, the
//     arithmetic happens in float, and results are quantized elementwise.
//   - HandOpt: the computation the hand-written AVX2 code performs — 8- and
//     16-bit values are multiplied with fused widening multiply-adds
//     (vpmaddubsw / vpmaddwd semantics) and model writes go through an
//     integer rounding pipeline.
//
// The numerical semantics of both variants are implemented bit-accurately in
// portable Go. Their hardware cost is captured separately as simd.Stream
// instruction streams (see stream.go), which the machine model converts to
// cycles; this is how the reproduction recovers the paper's throughput
// results without real SIMD intrinsics.
package kernels

import (
	"fmt"
	"unsafe"

	"buckwild/internal/dmgc"
	"buckwild/internal/fixed"
)

// swarLE reports whether the host stores uint64 words little-endian, so
// that lane i of a packed word is element 8*w+i (int8) or 4*w+i (int16) of
// the element view — the layout the SWAR kernels assume. On big-endian
// hosts vectors simply carry no word view and every kernel takes the
// scalar reference path.
var swarLE = func() bool {
	x := uint64(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// swarOn is the kill switch for the fast paths (the SWAR dots and the fused
// block AXPY), true in production. The differential tests flip it to force
// the scalar reference loops — the executable specification of values and
// health counts alike — over identical inputs and compare bit-for-bit.
var swarOn = true

// Prec is a storage precision for dataset or model numbers.
type Prec int

const (
	// F32 is IEEE 32-bit floating point (the full-precision baseline).
	F32 Prec = iota
	// I16 is 16-bit fixed point (fixed.Q16).
	I16
	// I8 is 8-bit fixed point (fixed.Q8).
	I8
	// I4 is 4-bit fixed point (fixed.Q4), stored one value per int8.
	// Current CPUs have no 4-bit arithmetic; this precision exists for
	// the Section 6.1 what-if ISA study.
	I4
)

// Bits returns the storage width of the precision in bits.
func (p Prec) Bits() uint {
	switch p {
	case F32:
		return 32
	case I16:
		return 16
	case I8:
		return 8
	case I4:
		return 4
	}
	panic(fmt.Sprintf("kernels: invalid Prec(%d)", int(p)))
}

// Bytes returns the in-memory storage size of one element in bytes. Note
// that I4 is modelled as packed (half a byte) for memory-traffic purposes
// even though the Go representation stores one nibble per int8.
func (p Prec) Bytes() float64 {
	return float64(p.Bits()) / 8
}

// Fixed returns the fixed-point format backing an integer precision.
// It panics for F32, which has no fixed-point format.
func (p Prec) Fixed() fixed.Format {
	switch p {
	case I16:
		return fixed.Q16
	case I8:
		return fixed.Q8
	case I4:
		return fixed.Q4
	}
	panic(fmt.Sprintf("kernels: Prec %v has no fixed-point format", p))
}

// IsFloat reports whether the precision is floating point.
func (p Prec) IsFloat() bool { return p == F32 }

// String names the precision as it appears in DMGC signatures.
func (p Prec) String() string {
	switch p {
	case F32:
		return "32f"
	case I16:
		return "16"
	case I8:
		return "8"
	case I4:
		return "4"
	}
	return fmt.Sprintf("Prec(%d)", int(p))
}

// ParsePrec parses a DMGC-style precision token ("32f", "16", "8", "4").
func ParsePrec(s string) (Prec, error) {
	switch s {
	case "32f", "32":
		return F32, nil
	case "16":
		return I16, nil
	case "8":
		return I8, nil
	case "4":
		return I4, nil
	}
	return 0, fmt.Errorf("kernels: unknown precision %q", s)
}

// TermPrec is the storage precision of a DMGC signature term, and the
// only place a term becomes one: an absent term (full precision) and 32f
// are F32, and 4, 8 and 16 bits are fixed point. A fixed 32 is stored as
// F32 too; any other width, and a float narrower than 32 bits, is
// refused.
func TermPrec(t dmgc.Term) (Prec, error) {
	if t.Float || !t.Present {
		if t.Present && t.Bits != 32 {
			return 0, fmt.Errorf("kernels: only 32-bit float storage is supported, got %df", t.Bits)
		}
		return F32, nil
	}
	switch t.Bits {
	case 4:
		return I4, nil
	case 8:
		return I8, nil
	case 16:
		return I16, nil
	case 32:
		return F32, nil
	}
	return 0, fmt.Errorf("kernels: unsupported precision %d (use 4, 8, 16 or 32f)", t.Bits)
}

// Vec is a vector stored at one of the supported precisions. Exactly one of
// the backing slices is non-nil, selected by P. I4 values live in I8 with
// each element restricted to [-8, 7].
//
// For the fixed-point precisions NewVec allocates the storage as a
// []uint64 word array and exposes the element slice as an unsafe view into
// it, so the SWAR kernels can load and store eight int8 (or four int16)
// lanes with one word access. w64 is that word array — ceil(n*size/8)
// words, zero-padded past n — or nil when the vector was built from a bare
// element slice or the host is big-endian; kernels treat nil as "scalar
// path only". The element slices and w64 alias the same memory, so scalar
// tail code and word code interleave safely.
//
// The methods take a pointer receiver: a Vec is 104 bytes, and a value
// receiver copies it on every call, inlined or not.
type Vec struct {
	P   Prec
	F32 []float32
	I16 []int16
	I8  []int8
	w64 []uint64
}

// NewVec allocates a zero vector of length n at precision p.
func NewVec(p Prec, n int) Vec {
	v := Vec{P: p}
	switch p {
	case F32:
		v.F32 = make([]float32, n)
	case I16:
		if swarLE && n > 0 {
			words := (n + 3) / 4
			v.w64 = make([]uint64, words)
			v.I16 = unsafe.Slice((*int16)(unsafe.Pointer(&v.w64[0])), words*4)[:n]
		} else {
			v.I16 = make([]int16, n)
		}
	case I8, I4:
		if swarLE && n > 0 {
			words := (n + 7) / 8
			v.w64 = make([]uint64, words)
			v.I8 = unsafe.Slice((*int8)(unsafe.Pointer(&v.w64[0])), words*8)[:n]
		} else {
			v.I8 = make([]int8, n)
		}
	default:
		panic(fmt.Sprintf("kernels: NewVec: invalid Prec(%d)", int(p)))
	}
	return v
}

// lanes8 loads the raw values of elements 8*blk .. 8*blk+7 into dst with
// word accesses (one uint64 load for I8/I4, two for I16). The caller
// guarantees the vector has a word view and the block is fully in range.
func (v *Vec) lanes8(blk int, dst *[8]int32) {
	if v.P == I16 {
		w0 := v.w64[2*blk]
		w1 := v.w64[2*blk+1]
		dst[0] = int32(int16(w0))
		dst[1] = int32(int16(w0 >> 16))
		dst[2] = int32(int16(w0 >> 32))
		dst[3] = int32(int16(w0 >> 48))
		dst[4] = int32(int16(w1))
		dst[5] = int32(int16(w1 >> 16))
		dst[6] = int32(int16(w1 >> 32))
		dst[7] = int32(int16(w1 >> 48))
		return
	}
	w := v.w64[blk]
	dst[0] = int32(int8(w))
	dst[1] = int32(int8(w >> 8))
	dst[2] = int32(int8(w >> 16))
	dst[3] = int32(int8(w >> 24))
	dst[4] = int32(int8(w >> 32))
	dst[5] = int32(int8(w >> 40))
	dst[6] = int32(int8(w >> 48))
	dst[7] = int32(int8(w >> 56))
}

// Len returns the vector length.
func (v *Vec) Len() int {
	switch v.P {
	case F32:
		return len(v.F32)
	case I16:
		return len(v.I16)
	default:
		return len(v.I8)
	}
}

// At returns the real (dequantized) value at index i.
func (v *Vec) At(i int) float32 {
	switch v.P {
	case F32:
		return v.F32[i]
	case I16:
		return fixed.Q16.Dequantize(int32(v.I16[i]))
	case I8:
		return fixed.Q8.Dequantize(int32(v.I8[i]))
	default: // I4
		return fixed.Q4.Dequantize(int32(v.I8[i]))
	}
}

// SetRaw stores a raw fixed-point value (or bit-cast float via SetFloat for
// F32 vectors). It panics if called on a float vector.
func (v *Vec) SetRaw(i int, raw int32) {
	switch v.P {
	case I16:
		v.I16[i] = int16(raw)
	case I8, I4:
		v.I8[i] = int8(raw)
	default:
		panic("kernels: SetRaw on float vector")
	}
}

// Raw returns the raw fixed-point value at index i. It panics for F32.
func (v *Vec) Raw(i int) int32 {
	switch v.P {
	case I16:
		return int32(v.I16[i])
	case I8, I4:
		return int32(v.I8[i])
	default:
		panic("kernels: Raw on float vector")
	}
}

// Set quantizes and stores the real value x at index i using q. For F32
// vectors the value is stored directly and q may be nil.
func (v *Vec) Set(i int, x float32, q *Quantizer) {
	if v.P == F32 {
		v.F32[i] = x
		return
	}
	v.SetRaw(i, q.Quantize(x))
}

// Fill quantizes the real values xs into v using q (nil allowed for F32).
func (v *Vec) Fill(xs []float32, q *Quantizer) {
	if len(xs) != v.Len() {
		panic(fmt.Sprintf("kernels: Fill length mismatch: %d != %d", len(xs), v.Len()))
	}
	for i, x := range xs {
		v.Set(i, x, q)
	}
}

// Floats dequantizes the whole vector into a fresh []float32.
func (v *Vec) Floats() []float32 {
	out := make([]float32, v.Len())
	for i := range out {
		out[i] = v.At(i)
	}
	return out
}

// Clone returns a deep copy of the vector.
func (v *Vec) Clone() Vec {
	c := NewVec(v.P, v.Len())
	switch v.P {
	case F32:
		copy(c.F32, v.F32)
	case I16:
		copy(c.I16, v.I16)
	default:
		copy(c.I8, v.I8)
	}
	return c
}

// Zero resets all elements to zero.
func (v *Vec) Zero() {
	switch v.P {
	case F32:
		for i := range v.F32 {
			v.F32[i] = 0
		}
	case I16:
		for i := range v.I16 {
			v.I16[i] = 0
		}
	default:
		for i := range v.I8 {
			v.I8[i] = 0
		}
	}
}
