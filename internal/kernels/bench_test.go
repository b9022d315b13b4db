package kernels

import (
	"fmt"
	"testing"

	"buckwild/internal/fixed"
)

// Microbenchmarks for the host-path kernels across precision, variant and
// rounding kind. They are a local tool for prototyping a kernel; no CI
// step runs them. The vector length matches fig2's simulated model size
// order of magnitude while staying L1-resident, so the numbers measure
// arithmetic, not memory.
const benchN = 4096

func benchKernel(b *testing.B, d, m Prec, v Variant, kind QuantKind) (*Dense, Vec, Vec) {
	b.Helper()
	var q *Quantizer
	if m != F32 {
		q = MustQuantizer(m, kind, 0, 42)
	}
	k := MustDense(d, m, v, q)
	x := NewVec(d, benchN)
	w := NewVec(m, benchN)
	fillRawVec(x, 7)
	fillRawVec(w, 11)
	return k, x, w
}

func benchGrid(b *testing.B, f func(b *testing.B, d, m Prec, v Variant, kind QuantKind)) {
	b.Helper()
	for _, d := range []Prec{I8, I16} {
		for _, v := range []Variant{Generic, HandOpt} {
			for _, kind := range []QuantKind{QBiased, QXorshift, QShared} {
				d, v, kind := d, v, kind
				b.Run(fmt.Sprintf("D%v/M%v/%v/%v", d, d, v, kind), func(b *testing.B) {
					f(b, d, d, v, kind)
				})
			}
		}
	}
}

func BenchmarkDot(b *testing.B) {
	benchGrid(b, func(b *testing.B, d, m Prec, v Variant, kind QuantKind) {
		k, x, w := benchKernel(b, d, m, v, kind)
		b.SetBytes(int64(float64(benchN) * (d.Bytes() + m.Bytes())))
		var sink float32
		for i := 0; i < b.N; i++ {
			sink += k.Dot(x, w)
		}
		_ = sink
	})
}

func BenchmarkAxpy(b *testing.B) {
	benchGrid(b, func(b *testing.B, d, m Prec, v Variant, kind QuantKind) {
		k, x, w := benchKernel(b, d, m, v, kind)
		b.SetBytes(int64(float64(benchN) * (d.Bytes() + 2*m.Bytes())))
		// The sign alternates so w stays where fillRawVec put it: adding
		// the same update b.N times would park every lane on the format
		// bound and time the clamp branch, which training rarely takes.
		a := float32(0.0371)
		for i := 0; i < b.N; i++ {
			k.Axpy(a, x, w)
			a = -a
		}
	})
}

// BenchmarkAxpyCounted is BenchmarkAxpy's integer rows with health
// counting on: the kernel and its quantizer share one NumCounts block, as
// in a NumHealth run.
func BenchmarkAxpyCounted(b *testing.B) {
	for _, d := range []Prec{I8, I16} {
		for _, kind := range []QuantKind{QBiased, QXorshift, QShared} {
			b.Run(fmt.Sprintf("D%v/M%v/%v", d, d, kind), func(b *testing.B) {
				k, x, w := benchKernel(b, d, d, HandOpt, kind)
				k.Num = &fixed.NumCounts{}
				k.Q.Num = k.Num
				b.SetBytes(int64(float64(benchN) * (d.Bytes() + 2*d.Bytes())))
				a := float32(0.0371)
				for i := 0; i < b.N; i++ {
					k.Axpy(a, x, w)
					a = -a
				}
			})
		}
	}
}

func BenchmarkQuantize(b *testing.B) {
	xs := randFloats(benchN, 3, 1.8)
	out := make([]int32, benchN)
	for _, m := range []Prec{I8, I16} {
		for _, kind := range []QuantKind{QBiased, QMersenne, QXorshift, QShared} {
			m, kind := m, kind
			b.Run(fmt.Sprintf("M%v/%v", m, kind), func(b *testing.B) {
				q := MustQuantizer(m, kind, 0, 42)
				b.SetBytes(int64(benchN) * 4)
				for i := 0; i < b.N; i++ {
					q.QuantizeBlock(xs, out)
				}
			})
		}
	}
}

func BenchmarkRoundRaw(b *testing.B) {
	var vals [8]int64
	for i := range vals {
		vals[i] = int64(i*7919-31000) << 10
	}
	for _, m := range []Prec{I8, I16} {
		for _, kind := range []QuantKind{QBiased, QMersenne, QXorshift, QShared} {
			m, kind := m, kind
			b.Run(fmt.Sprintf("M%v/%v", m, kind), func(b *testing.B) {
				q := MustQuantizer(m, kind, 0, 42)
				var sink int32
				for i := 0; i < b.N; i++ {
					sink += q.RoundRaw(vals[i&7], 14)
				}
				_ = sink
			})
		}
	}
}
