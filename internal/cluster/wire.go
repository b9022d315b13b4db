package cluster

import (
	"buckwild/internal/core"
	"buckwild/internal/dmgc"
	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
)

// wireCodec quantizes gradients onto the wire at the cluster's C
// precision. It is a thin framing layer over kernels.Quantizer — the
// same rounding machinery the training kernels use for model writes —
// so the cluster tier introduces no second rounding implementation (the
// lockstep test TestWireLockstepWithKernelsQuantizer in cluster_test.go
// pins this).
//
// Wire format per gradient payload (DESIGN.md §11): one float32 scale
// factor (4 bytes) followed by ceil(n*bits/8) bytes of raw fixed-point
// values. The scale maps the message's max-magnitude coordinate onto the
// format's representable range, so the grid adapts per message like the
// synchronous engine's comm grid. At 32 bits the payload is the raw
// float32 values (4n bytes) and nothing is rounded.
type wireCodec struct {
	bits uint
	fmt  fixed.Format
	q    *kernels.Quantizer // nil at 32 bits
}

// newWireCodec builds one node's codec. Each node owns its codec (and so
// its rounding randomness stream), keyed on (seed, node), which keeps the
// event-driven protocols deterministic regardless of message ordering.
func newWireCodec(bits uint, kind kernels.QuantKind, seed uint64, node int) (*wireCodec, error) {
	if bits == 32 {
		return &wireCodec{bits: 32}, nil
	}
	p, err := kernels.TermPrec(dmgc.FixedTerm(bits))
	if err != nil {
		return nil, err
	}
	q, err := kernels.NewQuantizer(p, kind, 8, seed^(uint64(node)+1)*0xA24BAED4963EE407|1)
	if err != nil {
		return nil, err
	}
	return &wireCodec{bits: bits, fmt: p.Fixed(), q: q}, nil
}

// counts attaches a numerical-health counter block to the codec's
// quantizer (saturations and rounding bias at the quantize site); wire
// underflows are counted by transfer itself.
func (c *wireCodec) counts(nc *fixed.NumCounts) {
	if c.q != nil {
		c.q.Num = nc
	}
}

// payloadBytes is the exact gradient payload size for n coordinates.
func (c *wireCodec) payloadBytes(n int) int {
	if c.bits == 32 {
		return 4 * n
	}
	return 4 + (n*int(c.bits)+7)/8
}

// transfer simulates putting gradient g on the wire: g is replaced by
// what the receiver decodes (quantize, then dequantize through the
// per-message scale), and with error feedback the quantization residual
// is carried into the next call via residual. It returns the exact
// payload byte count. A non-nil nc counts wire underflows (a nonzero
// coordinate decoded as zero); the quantizer's own counter (see counts)
// covers saturation and rounding bias.
func (c *wireCodec) transfer(g, residual []float32, errorFeedback bool, nc *fixed.NumCounts) int {
	if c.q == nil {
		return c.payloadBytes(len(g))
	}
	if !errorFeedback {
		residual = nil
	}
	maxAbs := core.FeedMaxAbs(g, residual)
	if maxAbs == 0 {
		return c.payloadBytes(len(g))
	}
	scale := maxAbs / c.fmt.MaxReal()
	for j, v := range g {
		dec := c.fmt.Dequantize(c.q.Quantize(v/scale)) * scale
		if nc != nil && v != 0 && dec == 0 {
			nc.Underflows++
		}
		if errorFeedback {
			residual[j] = v - dec
		}
		g[j] = dec
	}
	return c.payloadBytes(len(g))
}
