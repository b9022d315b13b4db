package prng

import "sync"

// Jump-ahead for the xorshift generators. Every xorshift step is linear over
// GF(2): the next state is T·s for a fixed bit matrix T. Advancing n draws is
// therefore T^n·s, which is the product of the precomputed powers T^(2^k)
// for the set bits of n — at most 64 matrix-vector products, each a few
// hundred word XORs. This lets a generator be split into contiguous
// substreams that reproduce, bit for bit, what one generator drawing
// sequentially would have produced.

// state128 is a generator state packed into two words, low bits first.
type state128 [2]uint64

// jumpTable holds T^(2^k) for k = 0..63, built on first use. pow[k][i] is
// the image of basis bit i under T^(2^k) (column i of the matrix).
type jumpTable struct {
	once sync.Once
	bits int
	step func(state128) state128
	pow  [64][]state128
}

func (t *jumpTable) build() {
	t.pow[0] = make([]state128, t.bits)
	for i := range t.pow[0] {
		var e state128
		e[i/64] = 1 << (i % 64)
		t.pow[0][i] = t.step(e)
	}
	for k := 1; k < len(t.pow); k++ {
		prev := t.pow[k-1]
		t.pow[k] = make([]state128, t.bits)
		for i, col := range prev {
			t.pow[k][i] = apply(prev, col)
		}
	}
}

// apply returns m·s.
func apply(m []state128, s state128) state128 {
	var r state128
	for i, col := range m {
		mask := -(s[i/64] >> (i % 64) & 1) // all ones when bit i is set
		r[0] ^= col[0] & mask
		r[1] ^= col[1] & mask
	}
	return r
}

// jump returns T^n·s.
func (t *jumpTable) jump(s state128, n uint64) state128 {
	t.once.Do(t.build)
	for k := 0; n != 0; k, n = k+1, n>>1 {
		if n&1 != 0 {
			s = apply(t.pow[k], s)
		}
	}
	return s
}

var jump32 = &jumpTable{bits: 32, step: func(s state128) state128 {
	x := Xorshift32{state: uint32(s[0])}
	x.Uint32()
	return state128{uint64(x.state)}
}}

var jump128 = &jumpTable{bits: 128, step: func(s state128) state128 {
	g := unpack128(s)
	g.Uint32()
	return pack128(g)
}}

func pack128(g Xorshift128) state128 {
	return state128{uint64(g.x) | uint64(g.y)<<32, uint64(g.z) | uint64(g.w)<<32}
}

func unpack128(s state128) Xorshift128 {
	return Xorshift128{x: uint32(s[0]), y: uint32(s[0] >> 32), z: uint32(s[1]), w: uint32(s[1] >> 32)}
}

// Jump advances the generator by n draws, leaving it exactly where n
// Uint32 calls would, in time logarithmic in n.
func (x *Xorshift32) Jump(n uint64) {
	x.state = uint32(jump32.jump(state128{uint64(x.state)}, n)[0])
}

// Jump advances the generator by n draws, leaving it exactly where n
// Uint32 calls would, in time logarithmic in n.
func (g *Xorshift128) Jump(n uint64) {
	*g = unpack128(jump128.jump(pack128(*g), n))
}
