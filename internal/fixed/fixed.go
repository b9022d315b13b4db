// Package fixed implements the low-precision fixed-point arithmetic that
// Buckwild! SGD uses in place of 32-bit floating point.
//
// A fixed-point format is described by a total signed bit width and a number
// of fractional bits; the real value represented by the integer v is
// v / 2^frac. The package provides saturating conversion between float and
// fixed point under the two rounding disciplines discussed in Section 3 of
// the paper:
//
//   - biased (nearest-neighbor) rounding, which is cheapest in hardware, and
//   - unbiased (stochastic) rounding, which rounds up or down at random so
//     that the expected value of the output equals the input. Unbiased
//     rounding requires a pseudorandom source; see package prng.
//
// The formats used throughout the reproduction are Q4, Q8 and Q16, matching
// the 4-, 8- and 16-bit model/dataset precisions in the paper's DMGC
// signatures.
package fixed

import (
	"fmt"
	"math"
)

// Format describes a signed fixed-point number format.
type Format struct {
	// Bits is the total signed width in bits, including the sign bit.
	// Supported widths are 2 through 32.
	Bits uint
	// Frac is the number of fractional bits. The representable step
	// (quantum) is 1/2^Frac.
	Frac uint
}

// Standard formats. The fractional splits follow the convention used by the
// paper's reference implementation: values are kept in roughly [-1, 1] for
// models and datasets sampled from [-1, 1]^n, so most bits are fractional.
var (
	// Q4 is a 4-bit format with 2 fractional bits: range [-2, 1.75].
	Q4 = Format{Bits: 4, Frac: 2}
	// Q8 is an 8-bit format with 6 fractional bits: range [-2, ~1.98].
	Q8 = Format{Bits: 8, Frac: 6}
	// Q16 is a 16-bit format with 14 fractional bits: range [-2, ~2).
	Q16 = Format{Bits: 16, Frac: 14}
)

// Valid reports whether the format is usable.
func (f Format) Valid() bool {
	return f.Bits >= 2 && f.Bits <= 32 && f.Frac < f.Bits
}

// MaxInt returns the largest representable raw integer value.
func (f Format) MaxInt() int32 {
	return int32(1)<<(f.Bits-1) - 1
}

// MinInt returns the smallest (most negative) representable raw integer value.
func (f Format) MinInt() int32 {
	return -(int32(1) << (f.Bits - 1))
}

// Scale returns the scaling factor 2^Frac that converts reals to raw values.
func (f Format) Scale() float32 {
	return float32(int64(1) << f.Frac)
}

// Quantum returns the representable step 1/2^Frac.
func (f Format) Quantum() float32 {
	return 1 / f.Scale()
}

// MaxReal returns the largest representable real value.
func (f Format) MaxReal() float32 {
	return float32(f.MaxInt()) * f.Quantum()
}

// String renders the format as, e.g., "Q8.6" (8 total bits, 6 fractional).
func (f Format) String() string {
	return fmt.Sprintf("Q%d.%d", f.Bits, f.Frac)
}

// Saturate clamps a raw integer to the representable range of the format.
func (f Format) Saturate(v int64) int32 {
	if v > int64(f.MaxInt()) {
		return f.MaxInt()
	}
	if v < int64(f.MinInt()) {
		return f.MinInt()
	}
	return int32(v)
}

// Dequantize converts a raw fixed-point value to its real value.
func (f Format) Dequantize(v int32) float32 {
	return float32(v) * f.Quantum()
}

// Rounding selects how reals are converted to raw fixed-point values.
type Rounding int

const (
	// Biased rounds to the nearest representable value (ties away from
	// zero). It needs no randomness and is the hardware-cheapest choice,
	// but introduces a systematic bias that hurts statistical efficiency
	// at very low precision.
	Biased Rounding = iota
	// Unbiased rounds up or down at random such that the expectation of
	// the output equals the input (stochastic rounding). It requires a
	// pseudorandom source.
	Unbiased
)

// String returns the rounding mode name.
func (r Rounding) String() string {
	switch r {
	case Biased:
		return "biased"
	case Unbiased:
		return "unbiased"
	}
	return fmt.Sprintf("Rounding(%d)", int(r))
}

// RandSource supplies uniform random 32-bit words for unbiased rounding.
// It is satisfied by the generators in package prng.
type RandSource interface {
	Uint32() uint32
}

// QuantizeBiased converts a real to the nearest representable raw value,
// saturating at the format bounds. NaN quantizes to zero.
func (f Format) QuantizeBiased(x float32) int32 {
	if x != x { // NaN
		return 0
	}
	scaled := float64(x) * float64(f.Scale())
	var r float64
	if scaled >= 0 {
		r = math.Floor(scaled + 0.5)
	} else {
		r = math.Ceil(scaled - 0.5)
	}
	if r > float64(f.MaxInt()) {
		return f.MaxInt()
	}
	if r < float64(f.MinInt()) {
		return f.MinInt()
	}
	return int32(r)
}

// QuantizeUnbiased converts a real to a raw value using stochastic rounding
// driven by rs, saturating at the format bounds: the result is
// floor(x*scale + u) for u uniform on [0, 1), so E[result] = x*scale for
// in-range x. NaN quantizes to zero.
func (f Format) QuantizeUnbiased(x float32, rs RandSource) int32 {
	if x != x { // NaN: no draw
		return 0
	}
	return f.QuantizeUnbiasedU(x, rs.Uint32())
}

// QuantizeUnbiasedU is QuantizeUnbiased with the random word supplied by the
// caller, the pure core it wraps (as RoundRawU is for RoundRaw): loops that
// own a concrete generator draw the word themselves and skip the interface
// call. NaN still quantizes to zero, but here the caller has already drawn
// for it; QuantizeUnbiased draws nothing for NaN.
func (f Format) QuantizeUnbiasedU(x float32, word uint32) int32 {
	// floor(x*scale + u), u = word's top 24 bits as a fraction in [0, 1):
	// plenty of resolution for <=32-bit formats.
	r := math.Floor(float64(x)*float64(f.Scale()) + float64(word>>8)*(1.0/(1<<24)))
	// Convert first and overwrite on saturation (an out-of-range conversion
	// is merely implementation-defined): this shape inlines, and keeps the
	// caller's loop body short.
	v := int32(r)
	if hi := f.MaxInt(); r > float64(hi) {
		v = hi
	} else if r < float64(^hi) { // ^hi == MinInt
		v = ^hi
	} else if x != x { // NaN
		v = 0
	}
	return v
}

// Quantize converts a real using the given rounding mode. For Unbiased
// rounding rs must be non-nil; for Biased it is ignored.
func (f Format) Quantize(x float32, mode Rounding, rs RandSource) int32 {
	if mode == Unbiased {
		return f.QuantizeUnbiased(x, rs)
	}
	return f.QuantizeBiased(x)
}

// RoundRaw requantizes a raw value expressed at a higher-precision format
// src into format f: it is the fixed-point analogue of Quantize and is the
// operation performed on every model write in low-precision SGD (the AXPY
// result is computed at higher precision and then rounded into the model
// format). shift is src.Frac - f.Frac and must be non-negative.
func (f Format) RoundRaw(v int64, shift uint, mode Rounding, rs RandSource) int32 {
	var u uint32
	if mode == Unbiased && shift != 0 {
		u = rs.Uint32()
	}
	return f.RoundRawU(v, shift, mode, u)
}

// RoundRawU is RoundRaw with the random word supplied by the caller instead
// of drawn from a source. It is the pure core of the rounding pipeline:
// kernels.Quantizer draws one 64-bit word per eight values, fans it out
// into lane words, and feeds each lane here, producing results
// bit-identical to RoundRaw fed the same words one at a time. u is ignored for Biased mode
// and when shift is zero (exactly the cases RoundRaw does not draw).
func (f Format) RoundRawU(v int64, shift uint, mode Rounding, u uint32) int32 {
	if shift == 0 {
		return f.Saturate(v)
	}
	return f.Saturate(roundShift(v, shift, mode, u))
}

// roundShift is the pre-saturation core RoundRawU and RoundRawUC share:
// v / 2^shift (shift > 0) rounded to an integer under mode.
func roundShift(v int64, shift uint, mode Rounding, u uint32) int64 {
	if mode == Unbiased {
		// floor((v + u) / 2^shift) with u uniform on [0, 2^shift).
		return (v + int64(u)&(int64(1)<<shift-1)) >> shift
	}
	// Round to nearest; ties away from zero for non-negative, which
	// matches the float path closely enough for SGD.
	return (v + int64(1)<<(shift-1)) >> shift
}
