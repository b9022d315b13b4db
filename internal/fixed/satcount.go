package fixed

// Numerical-health counting: the counter block the integer kernels fill
// from their own loops, and counting variants of the format clamp and the
// quantization entry points. "Taming the Wild" and the paper's Section 3
// argue that saturation and rounding bias are the mechanisms behind
// low-precision accuracy gaps; these variants make both observable per run
// without touching the uninstrumented paths.
//
// The contract mirrors the engine's observability convention: every
// counting variant takes a *NumCounts and behaves bit-identically to its
// plain counterpart when the counter is nil, so call sites pay one nil
// check and nothing else when health collection is off. A NumCounts is
// owned by exactly one worker goroutine and written with plain stores;
// the coordinator reads it only after joining the workers (the epoch
// WaitGroup provides the happens-before edge), exactly like the engine's
// counter shards.

// Site identifies one saturation (clamp) site in the low-precision
// arithmetic.
type Site int

// The saturation sites: the vpmaddubsw pair-sum clamp of the 8-bit dot,
// the format clamp on raw model writes (the rounded AXPY delta and the
// saturating add that applies it), and float-to-fixed conversion hitting
// the format bounds.
const (
	SiteMulAdd8to16 Site = iota
	SiteSaturate
	SiteQuantize
	// NumSites bounds the Site enum; it is the length of NumCounts.Sat.
	NumSites
)

// String names the site as it appears in exported saturation maps.
func (s Site) String() string {
	switch s {
	case SiteMulAdd8to16:
		return "muladd8to16"
	case SiteSaturate:
		return "saturate"
	case SiteQuantize:
		return "quantize"
	}
	return "site?"
}

// NumCounts is one worker's private numerical-health counter block:
// saturation events per site, the signed rounding-bias accumulator
// (measured error rounded − exact, in quanta of the destination format),
// and underflow events (a nonzero value quantized to zero, counted by the
// call sites that know a zero result means "no update"). All fields are
// plain (non-atomic); see the ownership contract above. A nil *NumCounts
// is valid everywhere one is accepted and counts nothing.
type NumCounts struct {
	// Sat counts saturation events by site.
	Sat [NumSites]uint64
	// Underflows counts nonzero values quantized to zero.
	Underflows uint64
	// BiasN and BiasSumQ accumulate the signed rounding error of
	// quantized writes: BiasSumQ sums (rounded − exact) in quanta over
	// BiasN writes, so BiasSumQ/BiasN is the measured rounding bias —
	// near zero for unbiased (stochastic) rounding, drifting for biased.
	// Saturated writes are excluded (clamping error is not rounding
	// error).
	BiasN    uint64
	BiasSumQ float64
}

// SatTotal sums the saturation events across all sites.
func (c *NumCounts) SatTotal() uint64 {
	if c == nil {
		return 0
	}
	var n uint64
	for _, v := range c.Sat {
		n += v
	}
	return n
}

// Merge folds other into c (both may be nil; a nil receiver ignores the
// call, matching the rest of the counting API).
func (c *NumCounts) Merge(other *NumCounts) {
	if c == nil || other == nil {
		return
	}
	for i := range c.Sat {
		c.Sat[i] += other.Sat[i]
	}
	c.Underflows += other.Underflows
	c.BiasN += other.BiasN
	c.BiasSumQ += other.BiasSumQ
}

// SaturateC is Saturate with saturation counting — the site every raw
// model write passes through in the integer AXPY pipeline.
func (f Format) SaturateC(v int64, c *NumCounts) int32 {
	if v > int64(f.MaxInt()) {
		if c != nil {
			c.Sat[SiteSaturate]++
		}
		return f.MaxInt()
	}
	if v < int64(f.MinInt()) {
		if c != nil {
			c.Sat[SiteSaturate]++
		}
		return f.MinInt()
	}
	return int32(v)
}

// QuantizeBiasedC is QuantizeBiased with saturation counting and
// rounding-bias accumulation: the signed error (rounded − exact) in
// quanta of f is added to the bias accumulator for in-range results.
func (f Format) QuantizeBiasedC(x float32, c *NumCounts) int32 {
	if x != x { // NaN
		return 0
	}
	out := f.QuantizeBiased(x)
	if c != nil {
		f.countQuant(float64(x)*float64(f.Scale()), out, c)
	}
	return out
}

// QuantizeUnbiasedC is QuantizeUnbiased with saturation counting and
// rounding-bias accumulation.
func (f Format) QuantizeUnbiasedC(x float32, rs RandSource, c *NumCounts) int32 {
	if x != x { // NaN
		return 0
	}
	out := f.QuantizeUnbiased(x, rs)
	if c != nil {
		f.countQuant(float64(x)*float64(f.Scale()), out, c)
	}
	return out
}

// QuantizeC dispatches to the counting variant for the given mode.
func (f Format) QuantizeC(x float32, mode Rounding, rs RandSource, c *NumCounts) int32 {
	if mode == Unbiased {
		return f.QuantizeUnbiasedC(x, rs, c)
	}
	return f.QuantizeBiasedC(x, c)
}

// countQuant records the health of one float-to-fixed conversion: the
// exact scaled value, the rounded output. Saturated conversions count a
// SiteQuantize event; in-range ones feed the bias accumulator.
func (f Format) countQuant(scaled float64, out int32, c *NumCounts) {
	if (out == f.MaxInt() && scaled > float64(f.MaxInt())) ||
		(out == f.MinInt() && scaled < float64(f.MinInt())) {
		c.Sat[SiteQuantize]++
		return
	}
	c.BiasN++
	c.BiasSumQ += float64(out) - scaled
}

// RoundRawC is RoundRaw with saturation counting and rounding-bias
// accumulation: the exact value is v/2^shift in quanta of f; the signed
// error of the rounded (pre-saturation) result feeds the bias
// accumulator, and a clamped result counts a SiteSaturate event instead.
func (f Format) RoundRawC(v int64, shift uint, mode Rounding, rs RandSource, c *NumCounts) int32 {
	var u uint32
	if mode == Unbiased && shift != 0 {
		u = rs.Uint32()
	}
	return f.RoundRawUC(v, shift, mode, u, c)
}

// RoundRawUC is RoundRawU with saturation counting and rounding-bias
// accumulation; it draws nothing, so counted and uncounted runs consume a
// randomness stream identically (the lockstep invariant the differential
// tests pin down).
func (f Format) RoundRawUC(v int64, shift uint, mode Rounding, u uint32, c *NumCounts) int32 {
	if c == nil {
		return f.RoundRawU(v, shift, mode, u)
	}
	if shift == 0 {
		out := f.SaturateC(v, c)
		if int64(out) == v {
			c.BiasN++ // exact requantization: zero rounding error
		}
		return out
	}
	r := roundShift(v, shift, mode, u)
	out := f.SaturateC(r, c)
	if int64(out) == r {
		c.BiasN++
		c.BiasSumQ += float64(r) - float64(v)/float64(int64(1)<<shift)
	}
	return out
}
