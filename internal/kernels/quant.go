package kernels

import (
	"fmt"

	"buckwild/internal/fixed"
	"buckwild/internal/prng"
)

// QuantKind identifies the randomness strategy behind a quantizer, which
// determines its hardware cost (Section 5.2, Figure 5b). The numerical
// behaviour of the three unbiased kinds differs only in which generator
// supplies the random bits and how often fresh bits are drawn.
type QuantKind int

const (
	// QBiased is nearest-neighbor rounding: no randomness, cheapest.
	QBiased QuantKind = iota
	// QMersenne is unbiased rounding with one MT19937 draw per rounded
	// number — the Boost-based baseline, dominated by PRNG cost.
	QMersenne
	// QXorshift is unbiased rounding with one (vectorized) XORSHIFT draw
	// per rounded number.
	QXorshift
	// QShared is unbiased rounding that reuses one vector of XORSHIFT
	// randomness across Period consecutive roundings — the strategy used
	// for the paper's headline throughput numbers.
	QShared
	// QHardware is unbiased rounding performed by the proposed QAXPY8
	// instruction's hardware PRNG (Section 6.1): zero software cost.
	QHardware
)

// String names the quantizer kind.
func (k QuantKind) String() string {
	switch k {
	case QBiased:
		return "biased"
	case QMersenne:
		return "unbiased-mt19937"
	case QXorshift:
		return "unbiased-xorshift"
	case QShared:
		return "unbiased-shared"
	case QHardware:
		return "unbiased-hardware"
	}
	return fmt.Sprintf("QuantKind(%d)", int(k))
}

// Unbiased reports whether the kind performs stochastic rounding.
func (k QuantKind) Unbiased() bool { return k != QBiased }

// Quantizer rounds real values into a fixed-point model format. It bundles
// the format, the rounding discipline, and the randomness source so kernels
// can stay agnostic of the strategy.
type Quantizer struct {
	Fmt  fixed.Format
	Kind QuantKind
	// Period is the randomness reuse period for QShared (ignored
	// otherwise). The paper refreshes once per AXPY vector: period 8.
	Period int
	// Num, when non-nil, receives numerical-health counts (quantization
	// clamps and the signed rounding-bias accumulator) for every value
	// this quantizer rounds. One nil check per call is the entire cost
	// when unset; see fixed.NumCounts for the ownership contract.
	Num *fixed.NumCounts
	src prng.Source
	// shared is src's concrete type for QShared, whose block fill the
	// fused AXPY loop calls directly; nil for the other kinds.
	shared *prng.Shared
	// src64 is non-nil for the batched kinds (QXorshift, QHardware),
	// whose rounding words come from the lane buffer below: one 64-bit
	// draw refills all eight lanes (the paper's §4 trick of stretching
	// few fresh random bits across a vector of roundings). QMersenne and
	// QShared keep one source draw per value — their defining cost/reuse
	// behaviour — merely staged through the same buffer-free path.
	src64 prng.Source64
	// rbuf holds buffered rounding words; rpos is the next unconsumed
	// lane. The scalar and block rounding entry points (RoundRaw, laneWords)
	// pop lanes strictly in order, so the stream a value sees never depends
	// on how values were grouped into calls — the lockstep invariant the
	// block AXPY relies on for bit-identity with the scalar reference.
	rbuf [prng.BatchLanes]uint32
	rpos int
}

// NewQuantizer builds a quantizer for model precision m with the given
// strategy. seed seeds the internal generator for the unbiased kinds.
func NewQuantizer(m Prec, kind QuantKind, period int, seed uint64) (*Quantizer, error) {
	if m == F32 {
		return nil, fmt.Errorf("kernels: float model needs no quantizer")
	}
	q := &Quantizer{Fmt: m.Fixed(), Kind: kind, Period: period, rpos: prng.BatchLanes}
	switch kind {
	case QBiased:
	case QMersenne:
		q.src = prng.NewMT19937(uint32(seed) | 1)
	case QXorshift, QHardware:
		b := prng.NewBatch(seed)
		q.src = b
		q.src64 = b
	case QShared:
		if period < 1 {
			period = prng.BatchLanes
		}
		q.Period = period
		s, err := prng.NewShared(prng.NewBatch(seed), period)
		if err != nil {
			return nil, err
		}
		q.src, q.shared = s, s
	default:
		return nil, fmt.Errorf("kernels: unknown quantizer kind %d", int(kind))
	}
	return q, nil
}

// MustQuantizer is NewQuantizer that panics on error, for tests and examples.
func MustQuantizer(m Prec, kind QuantKind, period int, seed uint64) *Quantizer {
	q, err := NewQuantizer(m, kind, period, seed)
	if err != nil {
		panic(err)
	}
	return q
}

// Mode returns the fixed-point rounding mode implied by the kind.
func (q *Quantizer) Mode() fixed.Rounding {
	if q.Kind.Unbiased() {
		return fixed.Unbiased
	}
	return fixed.Biased
}

// refill reloads the rounding-lane buffer from one 64-bit generator draw:
// byte i of the draw is replicated across all four bytes of lane i, so any
// low-bit mask a rounding shift applies (6, 14 or 22 bits in the AXPY
// pipeline) still sees a uniform 256-level dither. Spending 8 fresh bits
// per rounding instead of 32 is the §4 hardware-efficiency trade; each
// individual rounding remains unbiased to within the dither granularity.
func (q *Quantizer) refill() {
	w := q.src64.Uint64()
	for i := range q.rbuf {
		q.rbuf[i] = uint32(byte(w>>(8*uint(i)))) * 0x01010101
	}
	q.rpos = 0
}

// rand returns the next rounding word: through the lane buffer for batched
// kinds, straight from the source otherwise.
func (q *Quantizer) rand() uint32 {
	if q.src64 == nil {
		return q.src.Uint32()
	}
	if q.rpos >= prng.BatchLanes {
		q.refill()
	}
	u := q.rbuf[q.rpos]
	q.rpos++
	return u
}

// Uint32 makes the quantizer its own fixed.RandSource, drawing through the
// rounding-lane buffer so every path — scalar or vector, counted or not —
// consumes the identical lane stream.
func (q *Quantizer) Uint32() uint32 { return q.rand() }

// chunkLanes is the most lanes the fused AXPY rounds per chunkAddends call.
const chunkLanes = 64

// chunkAddends lays down in d the rounding addends of the next n RoundRaw
// calls by shift 32-up (n a multiple of 8, at most chunkLanes), each
// scaled by 2^up: the low shift bits of the rounding word the scalar call
// would draw — the same words in the same order, for any interleaving with
// scalar calls — or half a quantum under nearest rounding, which draws
// nothing. It returns the lane mask m: lane j's addend is d[j&m]. While
// each block of eight lanes has a single word (nearest rounding, or a
// QShared window covering the block) only its first lane is written and m
// clears the lane bits; from the first block with eight words on, every
// lane is written and m keeps them.
func (q *Quantizer) chunkAddends(d *[chunkLanes]int64, n int, up uint) int {
	const lanes = prng.BatchLanes
	up &= 31 // up < 32: no shift guard per lane
	var w [chunkLanes / lanes]uint32
	nb := 0
	switch {
	case q.Kind == QBiased:
		for nb = 0; nb < n/lanes; nb++ {
			w[nb] = 1 << 31 >> up
		}
	case q.shared != nil:
		nb = q.shared.FillBlocks(w[:n/lanes])
	}
	for b, v := range w[:nb] {
		d[b*lanes] = int64(v << up)
	}
	if nb*lanes == n {
		return chunkLanes - lanes
	}
	for j := range d[:nb*lanes] {
		d[j] = d[j&^(lanes-1)]
	}
	var u [lanes]uint32
	for k := nb * lanes; k < n; k += lanes {
		q.laneWords(&u)
		for l, v := range u {
			d[k+l] = int64(v << up)
		}
	}
	return chunkLanes - 1
}

// laneWords yields in u the rounding words of the next eight RoundRaw
// calls of an unbiased quantizer.
func (q *Quantizer) laneWords(u *[prng.BatchLanes]uint32) {
	switch {
	case q.shared != nil:
		if q.shared.Fill8(u) {
			for l := range u {
				u[l] = u[0]
			}
		}
	case q.src64 != nil && (q.rpos == 0 || q.rpos >= len(u)):
		if q.rpos != 0 {
			q.refill()
		}
		*u, q.rpos = q.rbuf, len(u)
	default:
		for l := range u {
			u[l] = q.rand()
		}
	}
}

// Quantize rounds a real value into the model format.
func (q *Quantizer) Quantize(x float32) int32 {
	if q.Num != nil {
		return q.Fmt.QuantizeC(x, q.Mode(), q, q.Num)
	}
	if q.Kind.Unbiased() {
		return q.Fmt.QuantizeUnbiased(x, q)
	}
	return q.Fmt.QuantizeBiased(x)
}

// QuantizeBlock quantizes a block of reals into raw model values,
// consuming rounding randomness in the same lane order as per-value
// Quantize calls (so blocked and elementwise quantization are
// interchangeable bit-for-bit). Sized calls of 16 values — one 64-byte
// cache line of float32 gradient — cost two 64-bit draws on the batched
// kinds instead of sixteen generator calls.
func (q *Quantizer) QuantizeBlock(xs []float32, out []int32) {
	if len(out) != len(xs) {
		panic(fmt.Sprintf("kernels: QuantizeBlock length mismatch %d != %d", len(out), len(xs)))
	}
	for i, x := range xs {
		out[i] = q.Quantize(x)
	}
}

// RoundRaw requantizes a wide raw value down by shift bits (integer AXPY
// pipeline; see fixed.Format.RoundRaw).
func (q *Quantizer) RoundRaw(v int64, shift uint) int32 {
	var u uint32
	if q.Kind.Unbiased() && shift != 0 {
		u = q.rand()
	}
	if q.Num != nil {
		return q.Fmt.RoundRawUC(v, shift, q.Mode(), u, q.Num)
	}
	return q.Fmt.RoundRawU(v, shift, q.Mode(), u)
}
