package kernels

import (
	"fmt"

	"buckwild/internal/fixed"
)

// Sparse computes dot and AXPY between a sparse dataset vector, given as
// parallel index/value arrays, and a dense model vector. Sparse kernels are
// gather/scatter bound: their memory accesses into the model are random, so
// SIMD helps far less than in the dense case (the paper's Table 2 shows
// sparse throughput nearly flat across precisions, and Figure 4b shows
// hand-optimization can even hurt for small sparse models).
//
// The index precision (Section 3, "index precision") affects only memory
// traffic: indices are always materialized as int32 in Go, and IdxBits
// records the storage width the instruction streams should charge for.
type Sparse struct {
	D, M Prec
	V    Variant
	Q    *Quantizer
	// IdxBits is the stored index width in bits (8, 16 or 32). Widths
	// below 32 use delta encoding for models too large to index directly
	// (paper footnote 6); the traffic model charges IdxBits per nonzero.
	IdxBits uint
	// Num, when non-nil, receives the worker's numerical-health counts;
	// see Dense.Num.
	Num *fixed.NumCounts
}

// NewSparse validates and builds a sparse kernel.
func NewSparse(d, m Prec, v Variant, q *Quantizer, idxBits uint) (*Sparse, error) {
	if m != F32 && q == nil {
		return nil, fmt.Errorf("kernels: model precision %v requires a quantizer", m)
	}
	if m == F32 && q != nil {
		return nil, fmt.Errorf("kernels: float model takes no quantizer")
	}
	switch idxBits {
	case 8, 16, 32:
	default:
		return nil, fmt.Errorf("kernels: index precision must be 8, 16 or 32 bits, got %d", idxBits)
	}
	return &Sparse{D: d, M: m, V: v, Q: q, IdxBits: idxBits}, nil
}

// Dot returns the inner product of the sparse vector (idx, x) with the
// dense model w. x holds the nonzero values at dataset precision; idx holds
// their positions in w.
func (k *Sparse) Dot(idx []int32, x, w Vec) float32 {
	if len(idx) != x.Len() {
		panic(fmt.Sprintf("kernels: sparse Dot: %d indices, %d values", len(idx), x.Len()))
	}
	if k.V != Generic && !k.D.IsFloat() && !k.M.IsFloat() {
		// Integer gather pipeline: exact widening multiplies, wide
		// accumulation (the gathered model values cannot use the
		// paired vpmadd instructions, so products accumulate
		// individually). The nonzero values are stored densely, so the
		// word path loads them eight lanes at a time and gathers the
		// model through the typed slice, skipping the per-element
		// precision dispatch; accumulation order is unchanged, so the
		// sum is bit-identical to the scalar reference.
		var acc int64
		j := 0
		if swarOn && x.w64 != nil && (k.D == I8 || k.D == I16) && (k.M == I8 || k.M == I16) {
			n8 := len(idx) &^ 7
			var xv [8]int32
			if k.M == I8 {
				wr := w.I8
				for ; j < n8; j += 8 {
					x.lanes8(j>>3, &xv)
					acc += int64(xv[0])*int64(wr[idx[j]]) +
						int64(xv[1])*int64(wr[idx[j+1]]) +
						int64(xv[2])*int64(wr[idx[j+2]]) +
						int64(xv[3])*int64(wr[idx[j+3]]) +
						int64(xv[4])*int64(wr[idx[j+4]]) +
						int64(xv[5])*int64(wr[idx[j+5]]) +
						int64(xv[6])*int64(wr[idx[j+6]]) +
						int64(xv[7])*int64(wr[idx[j+7]])
				}
			} else {
				wr := w.I16
				for ; j < n8; j += 8 {
					x.lanes8(j>>3, &xv)
					acc += int64(xv[0])*int64(wr[idx[j]]) +
						int64(xv[1])*int64(wr[idx[j+1]]) +
						int64(xv[2])*int64(wr[idx[j+2]]) +
						int64(xv[3])*int64(wr[idx[j+3]]) +
						int64(xv[4])*int64(wr[idx[j+4]]) +
						int64(xv[5])*int64(wr[idx[j+5]]) +
						int64(xv[6])*int64(wr[idx[j+6]]) +
						int64(xv[7])*int64(wr[idx[j+7]])
				}
			}
		}
		for ; j < len(idx); j++ {
			acc += int64(x.Raw(j)) * int64(w.Raw(int(idx[j])))
		}
		return float32(acc) * k.D.Fixed().Quantum() * k.M.Fixed().Quantum()
	}
	var sum float32
	for j, i := range idx {
		sum += x.At(j) * w.At(int(i))
	}
	return sum
}

// Axpy performs the sparse model update w[idx[j]] <- round(w[idx[j]] +
// a*x[j]) for every nonzero j.
func (k *Sparse) Axpy(a float32, idx []int32, x, w Vec) {
	if len(idx) != x.Len() {
		panic(fmt.Sprintf("kernels: sparse Axpy: %d indices, %d values", len(idx), x.Len()))
	}
	switch {
	case k.M.IsFloat():
		for j, i := range idx {
			w.F32[i] += a * x.At(j)
		}
	case k.V != Generic && !k.D.IsFloat():
		axpyInt(k.Q, k.Num, a, idx, &x, &w)
	case k.V != Generic: // float dataset, fixed model
		fm := k.M.Fixed()
		c := k.Num
		for j, i := range idx {
			p := a * x.At(j)
			delta := k.Q.Quantize(p)
			if c != nil && delta == 0 && p != 0 {
				c.Underflows++
			}
			w.SetRaw(int(i), fm.SaturateC(int64(w.Raw(int(i)))+int64(delta), c))
		}
	default:
		for j, i := range idx {
			w.Set(int(i), w.At(int(i))+a*x.At(j), k.Q)
		}
	}
}
