package fixed

// SWAR (SIMD-within-a-register) primitive: a saturating lane add over a
// uint64 word, emulating paddsb with plain 64-bit integer arithmetic. A word
// packs eight int8 lanes little-endian, so lane i of word w is element
// 8*w+i of the underlying int8 array — the layout kernels.Vec guarantees on
// little-endian hosts.
//
// The carry discipline is the classic sign-bit split: adding the low seven
// bits of every lane cannot carry across a lane boundary, the sign bits are
// recombined with xor, and true two's-complement overflow is detected per
// lane as "operand signs equal, result sign different". Overflowed lanes
// are then forced to the format extreme matching the first operand's sign.
// For Q8 in int8 lanes this is bit-identical to Saturate(int64(a)+int64(b))
// applied per lane, which TestAddSat8x8Exhaustive verifies.
//
// The integer AXPY no longer packs its deltas to add them — its fused loop
// clamps each lane as it writes (kernels.axpyFused) — so this is kept as
// the word-add the repository benchmark times (fixed.addsat8x8_ns).

const (
	lo7x8 = 0x7F7F7F7F7F7F7F7F
	hi1x8 = 0x8080808080808080
)

// AddSat8x8 adds two words of eight int8 lanes with per-lane signed
// saturation at [-128, 127].
func AddSat8x8(a, b uint64) uint64 {
	low := (a & lo7x8) + (b & lo7x8)
	r := low ^ ((a ^ b) & hi1x8)
	ov := (a ^ r) & (b ^ r) & hi1x8
	if ov == 0 {
		return r
	}
	// Each overflowed lane becomes 0x7F + sign(a): 0x7F for positive
	// overflow, 0x80 for negative. The byte multiplies cannot carry
	// across lanes (0x01*0x7F and the +1 both stay inside the byte).
	lanes := ov >> 7
	sat := lanes*0x7F + (a&ov)>>7
	keep := ^(lanes * 0xFF)
	return r&keep | sat
}
