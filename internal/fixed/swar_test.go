package fixed

import "testing"

func sat8(a, b int8) int8 {
	s := int16(a) + int16(b)
	if s > 127 {
		return 127
	}
	if s < -128 {
		return -128
	}
	return int8(s)
}

// TestAddSat8x8Exhaustive packs every int8 pair (all 65536) into lane
// words, eight unrelated pairs per word, and checks each lane against the
// scalar saturating add — covering both the arithmetic and the absence of
// cross-lane interference.
func TestAddSat8x8Exhaustive(t *testing.T) {
	var av, bv [8]int8
	lane := 0
	flush := func() {
		var a, b uint64
		for i := 0; i < 8; i++ {
			a |= uint64(uint8(av[i])) << (8 * i)
			b |= uint64(uint8(bv[i])) << (8 * i)
		}
		r := AddSat8x8(a, b)
		for i := 0; i < 8; i++ {
			want := sat8(av[i], bv[i])
			if got := int8(r >> (8 * i)); got != want {
				t.Fatalf("lane %d: %d + %d = %d, want %d", i, av[i], bv[i], got, want)
			}
		}
		lane = 0
	}
	for x := -128; x <= 127; x++ {
		for y := -128; y <= 127; y++ {
			av[lane], bv[lane] = int8(x), int8(y)
			lane++
			if lane == 8 {
				flush()
			}
		}
	}
	if lane != 0 {
		flush()
	}
}

// TestRoundRawUMatchesRoundRaw verifies the pure-core refactor: RoundRawU
// fed the word a source would have produced behaves exactly like RoundRaw
// drawing from that source, for both modes, all shifts, and the counting
// variants.
func TestRoundRawUMatchesRoundRaw(t *testing.T) {
	vals := []int64{0, 1, -1, 513, -8192, 1 << 20, -(1 << 30), 1<<40 + 12345}
	words := []uint32{0, 1, 0x7FFFFFFF, 0xFFFFFFFF, 0xDEADBEEF}
	for _, f := range []Format{Q4, Q8, Q16, q32} {
		for _, shift := range []uint{0, 1, 6, 14, 22} {
			for _, v := range vals {
				for _, w := range words {
					for _, mode := range []Rounding{Biased, Unbiased} {
						src := &replaySrc{w: w}
						want := f.RoundRaw(v, shift, mode, src)
						if got := f.RoundRawU(v, shift, mode, w); got != want {
							t.Fatalf("%v RoundRawU(%d, %d, %v, %#x) = %d, want %d", f, v, shift, mode, w, got, want)
						}
						var c1, c2 NumCounts
						src2 := &replaySrc{w: w}
						wantC := f.RoundRawC(v, shift, mode, src2, &c1)
						gotC := f.RoundRawUC(v, shift, mode, w, &c2)
						if gotC != wantC || c1 != c2 {
							t.Fatalf("%v RoundRawUC(%d, %d, %v, %#x) = %d (%+v), want %d (%+v)",
								f, v, shift, mode, w, gotC, c2, wantC, c1)
						}
					}
				}
			}
		}
	}
}

// replaySrc returns a fixed word forever.
type replaySrc struct{ w uint32 }

func (r *replaySrc) Uint32() uint32 { return r.w }
