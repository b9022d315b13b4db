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

func sat16(a, b int16) int16 {
	s := int32(a) + int32(b)
	if s > 32767 {
		return 32767
	}
	if s < -32768 {
		return -32768
	}
	return int16(s)
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

// TestAddSat16x4 checks the 16-bit lanes against the scalar reference on
// every combination of the edge values in adjacent lanes plus a large
// pseudorandom sweep.
func TestAddSat16x4(t *testing.T) {
	edges := []int16{-32768, -32767, -1, 0, 1, 32766, 32767, -256, 255}
	var av, bv [4]int16
	check := func() {
		t.Helper()
		var a, b uint64
		for i := 0; i < 4; i++ {
			a |= uint64(uint16(av[i])) << (16 * i)
			b |= uint64(uint16(bv[i])) << (16 * i)
		}
		r := AddSat16x4(a, b)
		for i := 0; i < 4; i++ {
			want := sat16(av[i], bv[i])
			if got := int16(r >> (16 * i)); got != want {
				t.Fatalf("lane %d: %d + %d = %d, want %d", i, av[i], bv[i], got, want)
			}
		}
	}
	// Every edge pair in lane 1, with overflowing neighbours in lanes 0,
	// 2, 3 to provoke any cross-lane leak.
	for _, x := range edges {
		for _, y := range edges {
			av = [4]int16{32767, x, -32768, 12345}
			bv = [4]int16{32767, y, -32768, 30000}
			check()
		}
	}
	// Pseudorandom sweep (xorshift64, fixed seed).
	s := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for n := 0; n < 200000; n++ {
		a, b := next(), next()
		for i := 0; i < 4; i++ {
			av[i] = int16(a >> (16 * i))
			bv[i] = int16(b >> (16 * i))
		}
		check()
	}
}

// TestAddSatNCountsClampedLanes checks the lane-count-returning adds: the
// sum equals the one-result form's, and the count is exactly the number of
// lanes whose true sum left the lane's range.
func TestAddSatNCountsClampedLanes(t *testing.T) {
	s := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for n := 0; n < 200000; n++ {
		a, b := next(), next()
		if n%4 == 0 { // bias towards same-sign extremes so lanes clamp
			a |= hi1x8 >> uint(n%3)
			b |= hi1x8 >> uint(n%3)
		}
		want8, want16 := 0, 0
		for i := 0; i < 8; i++ {
			if sum := int16(int8(a>>(8*i))) + int16(int8(b>>(8*i))); sum > 127 || sum < -128 {
				want8++
			}
		}
		for i := 0; i < 4; i++ {
			if sum := int32(int16(a>>(16*i))) + int32(int16(b>>(16*i))); sum > 32767 || sum < -32768 {
				want16++
			}
		}
		if r, got := AddSat8x8N(a, b); r != AddSat8x8(a, b) || got != want8 {
			t.Fatalf("AddSat8x8N(%#x, %#x) = %#x, %d clamped; want %#x, %d", a, b, r, got, AddSat8x8(a, b), want8)
		}
		if r, got := AddSat16x4N(a, b); r != AddSat16x4(a, b) || got != want16 {
			t.Fatalf("AddSat16x4N(%#x, %#x) = %#x, %d clamped; want %#x, %d", a, b, r, got, AddSat16x4(a, b), want16)
		}
	}
}

// TestRoundRawUMatchesRoundRaw verifies the pure-core refactor: RoundRawU
// fed the word a source would have produced behaves exactly like RoundRaw
// drawing from that source, for both modes, all shifts, and the counting
// variants.
func TestRoundRawUMatchesRoundRaw(t *testing.T) {
	vals := []int64{0, 1, -1, 513, -8192, 1 << 20, -(1 << 30), 1<<40 + 12345}
	words := []uint32{0, 1, 0x7FFFFFFF, 0xFFFFFFFF, 0xDEADBEEF}
	for _, f := range []Format{Q4, Q8, Q16, Q32} {
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
