// Package prng implements the pseudorandom number generators used by
// Buckwild! SGD for unbiased (stochastic) rounding, as described in
// Section 5.2 of the paper:
//
//   - XORSHIFT (Marsaglia 2003): a very fast, statistically adequate
//     generator; the paper hand-vectorizes it with AVX2. Here Batch provides
//     the 8-lane equivalent.
//   - MT19937 (Mersenne twister): the Boost default the paper compares
//     against; much slower per number, with excellent statistical quality.
//   - Shared: a wrapper that amortizes generator calls by reusing one random
//     word for several consecutive roundings, trading a little statistical
//     efficiency for hardware efficiency (the strategy the paper uses for
//     its headline numbers).
//
// All generators implement the fixed.RandSource interface via Uint32.
package prng

import "fmt"

// Source is a stream of uniform random words. It is intentionally minimal so
// that the quantizers can be driven by any of the generators here.
type Source interface {
	// Uint32 returns the next 32 uniformly distributed random bits.
	Uint32() uint32
}

// Source64 is a Source that can also hand out 64 bits in one draw. The
// batched rounding paths use it to pull one wide word and stretch it across
// eight packed values (Section 4's "generate fewer random bits" strategy);
// Batch implements it by draining two buffered lane words per call.
type Source64 interface {
	Source
	// Uint64 returns the next 64 uniformly distributed random bits,
	// consuming the stream exactly as two consecutive Uint32 calls would.
	Uint64() uint64
}

// Float32 derives a uniform float in [0, 1) from a source word.
func Float32(s Source) float32 {
	return float32(s.Uint32()>>8) * (1.0 / (1 << 24))
}

// Xorshift32 is Marsaglia's 32-bit xorshift generator (13, 17, 5 triple).
// The zero value is invalid; use NewXorshift32.
type Xorshift32 struct {
	state uint32
}

// NewXorshift32 returns a generator seeded with seed. A zero seed is
// replaced with a fixed non-zero constant, since the all-zero state is a
// fixed point of the xorshift recurrence.
func NewXorshift32(seed uint32) *Xorshift32 {
	if seed == 0 {
		seed = 0x9E3779B9
	}
	return &Xorshift32{state: seed}
}

// Uint32 advances the generator and returns the next word.
func (x *Xorshift32) Uint32() uint32 {
	s := x.state
	s ^= s << 13
	s ^= s >> 17
	s ^= s << 5
	x.state = s
	return s
}

// Xorshift64 is Marsaglia's 64-bit xorshift generator (13, 7, 17 triple).
type Xorshift64 struct {
	state uint64
}

// NewXorshift64 returns a generator seeded with seed (zero is remapped).
func NewXorshift64(seed uint64) *Xorshift64 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Xorshift64{state: seed}
}

// Uint64 advances the generator and returns the next 64-bit word.
func (x *Xorshift64) Uint64() uint64 {
	s := x.state
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	x.state = s
	return s
}

// Uint32 returns the high half of the next 64-bit word.
func (x *Xorshift64) Uint32() uint32 {
	return uint32(x.Uint64() >> 32)
}

// Xorshift128 is Marsaglia's 128-bit xorshift generator, the variant the
// paper's AVX2 implementation vectorizes.
type Xorshift128 struct {
	x, y, z, w uint32
}

// NewXorshift128 returns a generator seeded from seed via a splitmix-style
// expansion so that distinct seeds give well-separated states.
func NewXorshift128(seed uint64) *Xorshift128 {
	g := &Xorshift128{}
	sm := seed
	next := func() uint32 {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return uint32(z ^ (z >> 31))
	}
	g.x, g.y, g.z, g.w = next(), next(), next(), next()
	if g.x|g.y|g.z|g.w == 0 {
		g.w = 1
	}
	return g
}

// Uint32 advances the generator and returns the next word.
func (g *Xorshift128) Uint32() uint32 {
	t := g.x ^ (g.x << 11)
	g.x, g.y, g.z = g.y, g.z, g.w
	g.w = (g.w ^ (g.w >> 19)) ^ (t ^ (t >> 8))
	return g.w
}

// BatchLanes is the number of parallel xorshift lanes in a Batch generator.
// Eight 32-bit lanes correspond to one 256-bit AVX2 register, matching the
// paper's hand-vectorized XORSHIFT that produces "256 fresh bits of
// randomness" per invocation.
const BatchLanes = 8

// Batch runs BatchLanes independent xorshift128 lanes in lockstep,
// modelling the AVX2-vectorized XORSHIFT of Section 5.2. Refill advances all
// lanes with one (simulated) vector instruction sequence; Uint32 then drains
// the buffered lane outputs.
type Batch struct {
	x, y, z, w [BatchLanes]uint32
	buf        [BatchLanes]uint32
	pos        int
}

// NewBatch returns a batch generator with lanes seeded from seed.
func NewBatch(seed uint64) *Batch {
	b := &Batch{}
	sm := seed
	next := func() uint32 {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return uint32(z ^ (z >> 31))
	}
	for i := 0; i < BatchLanes; i++ {
		b.x[i], b.y[i], b.z[i], b.w[i] = next(), next(), next(), next()
		if b.x[i]|b.y[i]|b.z[i]|b.w[i] == 0 {
			b.w[i] = uint32(i) + 1
		}
	}
	b.pos = BatchLanes // force a refill on first use
	return b
}

// Refill advances every lane once and buffers the eight fresh words.
func (b *Batch) Refill() {
	for i := 0; i < BatchLanes; i++ {
		t := b.x[i] ^ (b.x[i] << 11)
		b.x[i], b.y[i], b.z[i] = b.y[i], b.z[i], b.w[i]
		b.w[i] = (b.w[i] ^ (b.w[i] >> 19)) ^ (t ^ (t >> 8))
		b.buf[i] = b.w[i]
	}
	b.pos = 0
}

// Uint32 returns the next buffered word, refilling all lanes when drained.
func (b *Batch) Uint32() uint32 {
	if b.pos >= BatchLanes {
		b.Refill()
	}
	v := b.buf[b.pos]
	b.pos++
	return v
}

// Uint64 returns the next 64 buffered random bits — two consecutive lane
// words, identical to two Uint32 calls. One Uint64 is the block draw behind
// batched stochastic rounding: its eight bytes seed the rounding words for
// eight packed values (see kernels.Quantizer), so a full lane refill pays
// for 32 roundings instead of 8.
func (b *Batch) Uint64() uint64 {
	if b.pos+2 <= BatchLanes {
		v := uint64(b.buf[b.pos])<<32 | uint64(b.buf[b.pos+1])
		b.pos += 2
		return v
	}
	hi := b.Uint32()
	lo := b.Uint32()
	return uint64(hi)<<32 | uint64(lo)
}

// Shared wraps a Source and reuses each generated word Period times before
// drawing a fresh one. This is the "share randomness among multiple rounded
// numbers" strategy of Section 5.2: each individual rounding remains
// unbiased, but consecutive roundings are no longer independent. Period
// controls the statistical/hardware efficiency trade-off; Period == 1 is
// equivalent to the underlying source.
type Shared struct {
	src Source
	// batch is src when it is a *Batch, whose draws FillBlocks then
	// inlines instead of calling through the interface.
	batch  *Batch
	period int
	count  int
	cur    uint32
}

// NewShared returns a sharing wrapper over src with the given reuse period.
func NewShared(src Source, period int) (*Shared, error) {
	if src == nil {
		return nil, fmt.Errorf("prng: NewShared: nil source")
	}
	if period < 1 {
		return nil, fmt.Errorf("prng: NewShared: period %d < 1", period)
	}
	b, _ := src.(*Batch)
	return &Shared{src: src, batch: b, period: period, count: period}, nil
}

// Period returns the reuse period.
func (s *Shared) Period() int { return s.period }

// Uint32 returns the current shared word, drawing a fresh one from the
// underlying source every Period calls.
func (s *Shared) Uint32() uint32 {
	if s.count >= s.period {
		s.cur = s.src.Uint32()
		s.count = 0
	}
	s.count++
	return s.cur
}

// Fill8 yields the words of the next BatchLanes Uint32 calls, consuming the
// stream exactly as those calls would. When the current reuse window covers
// the whole block all eight are one word: only dst[0] is written and Fill8
// reports true — at Period >= 8 a block of roundings then costs one draw
// and no per-lane call.
func (s *Shared) Fill8(dst *[BatchLanes]uint32) bool {
	if s.FillBlocks(dst[:1]) == 1 {
		return true
	}
	for i := range dst {
		dst[i] = s.Uint32()
	}
	return false
}

// FillBlocks yields the words of up to len(dst) consecutive blocks of
// BatchLanes Uint32 calls for as long as one reuse window covers each
// whole block: dst[k] is the single word of block k. It consumes the
// stream exactly as those calls would and returns how many blocks it
// filled, stopping at the first block that needs more than one word —
// the state is then the one Fill8 reads that block's words from.
func (s *Shared) FillBlocks(dst []uint32) int {
	count, cur, b := s.count, s.cur, s.batch
	n := 0
	for ; n < len(dst); n++ {
		if count >= s.period {
			if b != nil {
				cur = b.Uint32()
			} else {
				cur = s.src.Uint32()
			}
			count = 0
		}
		if s.period-count < BatchLanes {
			break
		}
		count += BatchLanes
		dst[n] = cur
	}
	s.count, s.cur = count, cur
	return n
}
