package fixed

import "math/bits"

// SWAR (SIMD-within-a-register) primitives: saturating lane adds over a
// uint64 word, emulating the paddsb/paddsw half of the hand-optimized AVX2
// kernels with plain 64-bit integer arithmetic. A word packs eight int8
// lanes (or four int16 lanes) little-endian, so lane i of word w is element
// 8*w+i of the underlying int8 array — the layout kernels.Vec guarantees on
// little-endian hosts.
//
// The carry discipline is the classic sign-bit split: adding the low seven
// bits of every lane cannot carry across a lane boundary, the sign bits are
// recombined with xor, and true two's-complement overflow is detected per
// lane as "operand signs equal, result sign different". Overflowed lanes
// are then forced to the format extreme matching the first operand's sign.
// For the full-width formats (Q8 into int8 lanes, Q16 into int16 lanes)
// this is bit-identical to Saturate(int64(a)+int64(b)) applied per lane,
// which the differential tests in package kernels verify exhaustively.
//
// The overflow mask is also the saturation count: one set bit per clamped
// lane. The N forms return its popcount (taken only on the rare overflow
// branch), which is how the integer AXPY feeds NumCounts.Sat[SiteSaturate]
// from the same loop whether or not anyone is counting.

const (
	lo7x8  = 0x7F7F7F7F7F7F7F7F
	hi1x8  = 0x8080808080808080
	lo15x4 = 0x7FFF7FFF7FFF7FFF
	hi1x4  = 0x8000800080008000
)

// AddSat8x8 adds two words of eight int8 lanes with per-lane signed
// saturation at [-128, 127].
func AddSat8x8(a, b uint64) uint64 {
	r, _ := AddSat8x8N(a, b)
	return r
}

// AddSat8x8N is AddSat8x8 that also returns how many lanes saturated.
func AddSat8x8N(a, b uint64) (sum uint64, clamped int) {
	low := (a & lo7x8) + (b & lo7x8)
	r := low ^ ((a ^ b) & hi1x8)
	ov := (a ^ r) & (b ^ r) & hi1x8
	if ov == 0 {
		return r, 0
	}
	// Each overflowed lane becomes 0x7F + sign(a): 0x7F for positive
	// overflow, 0x80 for negative. The byte multiplies cannot carry
	// across lanes (0x01*0x7F and the +1 both stay inside the byte).
	lanes := ov >> 7
	sat := lanes*0x7F + (a&ov)>>7
	keep := ^(lanes * 0xFF)
	return r&keep | sat, bits.OnesCount64(ov)
}

// AddSat16x4 adds two words of four int16 lanes with per-lane signed
// saturation at [-32768, 32767].
func AddSat16x4(a, b uint64) uint64 {
	r, _ := AddSat16x4N(a, b)
	return r
}

// AddSat16x4N is AddSat16x4 that also returns how many lanes saturated.
func AddSat16x4N(a, b uint64) (sum uint64, clamped int) {
	low := (a & lo15x4) + (b & lo15x4)
	r := low ^ ((a ^ b) & hi1x4)
	ov := (a ^ r) & (b ^ r) & hi1x4
	if ov == 0 {
		return r, 0
	}
	lanes := ov >> 15
	sat := lanes*0x7FFF + (a&ov)>>15
	keep := ^(lanes * 0xFFFF)
	return r&keep | sat, bits.OnesCount64(ov)
}
