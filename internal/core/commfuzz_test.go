package core

import (
	"encoding/binary"
	"math"
	"testing"
)

// quantizeCommScalar is quantizeComm as it was before the residual feed
// was fused into the scale pass and the 1-bit sign select lost its
// branch: the elementwise oracle FuzzQuantizeCommMatchesScalar holds the
// engine's quantizer to, bit for bit.
func quantizeCommScalar(g, residual []float32, bits uint, errorFeedback bool) []float32 {
	if bits >= 32 {
		return g
	}
	// Residual correction.
	if errorFeedback {
		for j := range g {
			g[j] += residual[j]
		}
	}
	var scale float32
	if bits == 1 {
		var sum float64
		for _, v := range g {
			sum += math.Abs(float64(v))
		}
		scale = float32(sum / float64(len(g)))
	} else {
		for _, v := range g {
			if a := float32(math.Abs(float64(v))); a > scale {
				scale = a
			}
		}
	}
	if scale == 0 {
		return g
	}
	if bits == 1 {
		for j, v := range g {
			q := scale
			if v < 0 {
				q = -scale
			}
			if errorFeedback {
				residual[j] = v - q
			}
			g[j] = q
		}
		return g
	}
	levels := float32(int32(1)<<(bits-1)) - 1 // e.g. 127 for 8 bits
	// Grid rounding proceeds one cache line of gradient at a time —
	// 16 float32 values — mirroring the kernels' word-blocked layout: the
	// loop-invariant scale/levels work is hoisted out of the element loop
	// and each block is rounded and residual-corrected as a unit. The
	// per-element arithmetic is unchanged, so quantized values are
	// bit-identical to the former elementwise loop.
	const lineFloats = 16
	for base := 0; base < len(g); base += lineFloats {
		end := base + lineFloats
		if end > len(g) {
			end = len(g)
		}
		blk := g[base:end]
		for o, v := range blk {
			r := v / scale * levels
			q := float32(math.Round(float64(r))) / levels * scale
			if errorFeedback {
				residual[base+o] = v - q
			}
			blk[o] = q
		}
	}
	return g
}

// commBits renders float32 bit patterns as little-endian fuzz bytes.
func commBits(words ...uint32) []byte {
	var b []byte
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// FuzzQuantizeCommMatchesScalar: quantizeComm and its elementwise oracle
// agree on the quantized gradient and the carried residual, bit for bit.
// raw holds the
// gradient then the residual, four little-endian bytes per float32;
// bits is 1 + sel mod 32.
func FuzzQuantizeCommMatchesScalar(f *testing.F) {
	specials := commBits(
		0x00000000, 0x80000000, // +0, -0
		0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, // NaNs of both signs
		0x7f800000, 0xff800000, // +Inf, -Inf
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // subnormals
		0x3f800000, 0xbf800000, 0x3dcccccd, 0xc2c80000, // 1, -1, 0.1, -100
	)
	finite := commBits(
		0x80000000, 0x00000001, 0x80000001, 0x807fffff,
		0x3f800000, 0xbf800000, 0x3dcccccd, 0xc2c80000,
		0xbdcccccd, 0x3c23d70a, 0x00000000, 0xff7fffff,
	)
	for _, sel := range []uint8{0, 1, 7, 15, 30, 31} {
		f.Add(specials, sel, true)
		f.Add(finite, sel, true)
		f.Add(finite, sel, false)
	}
	f.Add(make([]byte, 64), uint8(0), true) // all-zero gradient and residual
	f.Add(make([]byte, 64), uint8(7), false)
	f.Add(append(make([]byte, 32), finite[:32]...), uint8(0), true) // zero gradient, live residual
	f.Fuzz(func(t *testing.T, raw []byte, sel uint8, ef bool) {
		n := len(raw) / 8
		if n == 0 {
			t.Skip("no whole gradient/residual pair")
		}
		bits := 1 + uint(sel)%32
		load := func(off int) []float32 {
			v := make([]float32, n)
			for j := range v {
				v[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[off+4*j:]))
			}
			return v
		}
		g, r := load(0), load(4*n)
		wantG, wantR := load(0), load(4*n)
		got := quantizeComm(g, r, bits, ef)
		want := quantizeCommScalar(wantG, wantR, bits, ef)
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("bits=%d ef=%v: q[%d] = %#x, oracle %#x", bits, ef, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
			}
			if math.Float32bits(r[j]) != math.Float32bits(wantR[j]) {
				t.Fatalf("bits=%d ef=%v: residual[%d] = %#x, oracle %#x", bits, ef, j, math.Float32bits(r[j]), math.Float32bits(wantR[j]))
			}
		}
	})
}
