package prng

import "testing"

// jumpCounts are the jump distances checked against stepping: the edges of
// the first few powers of two, where the binary decomposition changes shape,
// plus one past 2^20.
var jumpCounts = []uint64{0, 1, 2, 31, 32, 33, 127, 128, 129, 4097, 1<<20 + 3}

// TestJumpMatchesStepping requires Jump(n) to land exactly where n Uint32
// calls do, for both generators, over several seeds including zero (which
// Xorshift32 remaps).
func TestJumpMatchesStepping(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xDEADBEEFCAFE} {
		s32 := NewXorshift32(uint32(seed))
		s128 := NewXorshift128(seed)
		var drawn uint64
		for _, n := range jumpCounts {
			for ; drawn < n; drawn++ {
				s32.Uint32()
				s128.Uint32()
			}
			j32 := NewXorshift32(uint32(seed))
			j32.Jump(n)
			if *j32 != *s32 {
				t.Errorf("Xorshift32 seed %#x: Jump(%d) = %#x, stepping gives %#x", seed, n, j32.state, s32.state)
			}
			j128 := NewXorshift128(seed)
			j128.Jump(n)
			if *j128 != *s128 {
				t.Errorf("Xorshift128 seed %#x: Jump(%d) = %+v, stepping gives %+v", seed, n, *j128, *s128)
			}
			// The next draws agree too, not just the state.
			if a, b := *j128, *s128; a.Uint32() != b.Uint32() {
				t.Errorf("Xorshift128 seed %#x: next draw after Jump(%d) differs", seed, n)
			}
		}
	}
}

// TestJumpComposes requires Jump(a) then Jump(b) to equal Jump(a+b),
// including distances far beyond what the stepping test can reach.
func TestJumpComposes(t *testing.T) {
	pairs := [][2]uint64{{0, 0}, {1, 1}, {3, 5}, {4097, 1<<20 + 3}, {1 << 40, 12345}, {1<<63 - 1, 1 << 62}}
	for _, seed := range []uint64{0, 7} {
		for _, p := range pairs {
			a32, ab32 := NewXorshift32(uint32(seed)), NewXorshift32(uint32(seed))
			a32.Jump(p[0])
			a32.Jump(p[1])
			ab32.Jump(p[0] + p[1])
			if *a32 != *ab32 {
				t.Errorf("Xorshift32 seed %d: Jump(%d)+Jump(%d) != Jump(%d)", seed, p[0], p[1], p[0]+p[1])
			}
			a128, ab128 := NewXorshift128(seed), NewXorshift128(seed)
			a128.Jump(p[0])
			a128.Jump(p[1])
			ab128.Jump(p[0] + p[1])
			if *a128 != *ab128 {
				t.Errorf("Xorshift128 seed %d: Jump(%d)+Jump(%d) != Jump(%d)", seed, p[0], p[1], p[0]+p[1])
			}
		}
	}
}

func BenchmarkJump128(b *testing.B) {
	g := NewXorshift128(1)
	for i := 0; i < b.N; i++ {
		g.Jump(8192 * 4097)
	}
}
