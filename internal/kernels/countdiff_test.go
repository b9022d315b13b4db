package kernels

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"buckwild/internal/fixed"
	"buckwild/internal/prng"
)

// countedOut is everything a counted kernel run produces: the dot bits,
// the final model and the whole counter block.
type countedOut struct {
	dots []uint32
	w    Vec
	c    fixed.NumCounts
}

// runCounted drives dot, then one axpy per scalar in as, then dot again
// with health counting on, down the SWAR path or (scalar=true) the scalar
// reference loops. A nil idx runs the dense kernel, otherwise the sparse
// one over (idx, x). Every call builds a fresh same-seeded quantizer (period
// is QShared's reuse period, 0 for the default), so the two paths see the
// same rounding stream.
func runCounted(scalar bool, d, m Prec, v Variant, kind QuantKind, period int, seed uint64, idx []int32, x, w0 Vec, as []float32) countedOut {
	return runAxpy(scalar, true, d, m, v, kind, period, 0, seed, idx, x, w0, as)
}

// runAxpy is runCounted with counting optional and the quantizer first
// spending phase rounding words, so that the first AXPY starts that far
// into a QShared reuse window.
func runAxpy(scalar, counted bool, d, m Prec, v Variant, kind QuantKind, period, phase int, seed uint64, idx []int32, x, w0 Vec, as []float32) countedOut {
	old := swarOn
	swarOn = !scalar
	defer func() { swarOn = old }()

	var out countedOut
	q := MustQuantizer(m, kind, period, seed)
	for i := 0; i < phase; i++ {
		q.Uint32()
	}
	var num *fixed.NumCounts
	if counted {
		num = &out.c
	}
	q.Num = num
	out.w = w0.Clone()
	var dot func() float32
	var axpy func(a float32)
	if idx == nil {
		k := MustDense(d, m, v, q)
		k.Num = num
		dot = func() float32 { return k.Dot(x, out.w) }
		axpy = func(a float32) { k.Axpy(a, x, out.w) }
	} else {
		k := mustSparse(d, m, v, q, 16)
		k.Num = num
		dot = func() float32 { return k.Dot(idx, x, out.w) }
		axpy = func(a float32) { k.Axpy(a, idx, x, out.w) }
	}
	out.dots = append(out.dots, math.Float32bits(dot()))
	for _, a := range as {
		axpy(a)
	}
	out.dots = append(out.dots, math.Float32bits(dot()))
	return out
}

// windowScalars alternate rounding clamps at both bounds (|a| at the ends
// of the a-lane, against operands at both ends of their range) with
// ordinary updates and near-zero ones, so that model words reach both
// bounds and clamp there too.
var windowScalars = []float32{-2, 0.371, 1.99997, -1.044, 2, 0.002, -1.9999, 1.9}

// fillBounds fills v with the pattern MinInt, MaxInt, MinInt+1, MaxInt-1,
// 0, rotated by off, so that every block holds both bounds of the format.
func fillBounds(v Vec, off int) {
	f := v.P.Fixed()
	pat := []int32{f.MinInt(), f.MaxInt(), f.MinInt() + 1, f.MaxInt() - 1, 0}
	for i := 0; i < v.Len(); i++ {
		v.SetRaw(i, pat[(i+off)%len(pat)])
	}
}

// checkWindows is the fused AXPY's rounding-window grid: QShared at every
// reuse period 1..9 and every phase of the window the first AXPY starts
// at, with lengths covering n mod 8 = 0..7 inside one chunk and across
// chunks, every lane width pair, random operands and operands at both
// format bounds (delta and model-write clamps at both ends), dense or
// (sparse) over indices with duplicates, several of them inside a block.
// The SWAR run must match the scalar reference bit for bit — and, with
// counts, on every NumCounts field; without, a counted SWAR run must
// produce the same values.
func checkWindows(t *testing.T, sparse, counts bool) {
	t.Helper()
	seed := uint64(0x3A11)
	for _, d := range []Prec{I8, I16} {
		for _, m := range []Prec{I8, I16} {
			for period := 1; period <= 9; period++ {
				for phase := 0; phase < period; phase++ {
					for _, n := range []int{8, 9, 10, 11, 12, 13, 14, 15, 135} {
						for _, bounds := range []bool{false, true} {
							seed++
							wlen := n
							var idx []int32
							if sparse {
								wlen = 5 + n/4 // few positions: duplicates in most blocks
								idx = sparseIdx(n, wlen, seed)
							}
							x, w0 := NewVec(d, n), NewVec(m, wlen)
							if bounds {
								fillBounds(x, 0)
								fillBounds(w0, 1)
							} else {
								fillRawVec(x, seed*3+1)
								fillRawVec(w0, seed*5+2)
							}
							name := fmt.Sprintf("D%v/M%v/period%d/phase%d/n%d/bounds=%v", d, m, period, phase, n, bounds)
							run := func(scalar, counted bool) countedOut {
								return runAxpy(scalar, counted, d, m, HandOpt, QShared, period, phase, seed, idx, x, w0, windowScalars)
							}
							ref := run(true, counts)
							if err := diffCounted(run(false, counts), ref); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if counts {
								if bounds && ref.c.Sat[fixed.SiteSaturate] == 0 {
									t.Errorf("%s: no clamp counted: %+v", name, ref.c)
								}
								continue
							}
							if err := diffCounted(run(false, true), ref); err != nil && !errors.Is(err, errCountsDiffer) {
								t.Fatalf("%s: counted: %v", name, err)
							}
						}
					}
				}
			}
		}
	}
}

// errCountsDiffer marks a diffCounted error in the counts alone: the dots
// and the model words matched.
var errCountsDiffer = errors.New("counts differ")

// diffCounted reports the first difference between a SWAR and a scalar
// counted run: dots, every model word, and every NumCounts field (the
// float64 bias sum by its bits — lane order is part of the contract).
func diffCounted(swar, ref countedOut) error {
	for i := range ref.dots {
		if swar.dots[i] != ref.dots[i] {
			return fmt.Errorf("dot %d bits: swar %#x scalar %#x", i, swar.dots[i], ref.dots[i])
		}
	}
	for i := 0; i < ref.w.Len(); i++ {
		if swar.w.Raw(i) != ref.w.Raw(i) {
			return fmt.Errorf("w[%d]: swar %d scalar %d", i, swar.w.Raw(i), ref.w.Raw(i))
		}
	}
	for s := fixed.Site(0); s < fixed.NumSites; s++ {
		if swar.c.Sat[s] != ref.c.Sat[s] {
			return fmt.Errorf("%w: Sat[%v]: swar %d scalar %d", errCountsDiffer, s, swar.c.Sat[s], ref.c.Sat[s])
		}
	}
	if swar.c.Underflows != ref.c.Underflows {
		return fmt.Errorf("%w: Underflows: swar %d scalar %d", errCountsDiffer, swar.c.Underflows, ref.c.Underflows)
	}
	if swar.c.BiasN != ref.c.BiasN {
		return fmt.Errorf("%w: BiasN: swar %d scalar %d", errCountsDiffer, swar.c.BiasN, ref.c.BiasN)
	}
	if a, b := math.Float64bits(swar.c.BiasSumQ), math.Float64bits(ref.c.BiasSumQ); a != b {
		return fmt.Errorf("%w: BiasSumQ bits: swar %#x (%g) scalar %#x (%g)", errCountsDiffer, a, swar.c.BiasSumQ, b, ref.c.BiasSumQ)
	}
	return nil
}

// countedScalars exercises every count source of the integer AXPY: two
// ordinary updates, a scalar below the a-lane quantum (whole update
// dropped: one underflow), one whose per-element products round to zero,
// and two large ones that push the model into its format bounds.
var countedScalars = []float32{0.371, -1.044, 1e-6, 0.002, 1.9, 1.9}

// fillMinInt sets every element to the format's most negative value.
func fillMinInt(v Vec) {
	for i := 0; i < v.Len(); i++ {
		v.SetRaw(i, v.P.Fixed().MinInt())
	}
}

// sparseIdx draws nnz positions in [0, wlen) with a duplicate inside the
// first block, so scatter order matters.
func sparseIdx(nnz, wlen int, seed uint64) []int32 {
	idx := make([]int32, nnz)
	g := prng.NewXorshift64(seed)
	for j := range idx {
		idx[j] = int32(g.Uint64() % uint64(wlen))
	}
	if nnz >= 2 {
		idx[1] = idx[0]
	}
	return idx
}

// TestCountedSwarMatchesScalar pins the counts, not just the weights: a
// counted run down the SWAR loops must equal a counted run down the
// scalar reference loops on every NumCounts field, over the D x M x
// variant x kind grid of the value-level differential tests, ragged and
// sub-word lengths, and an all-MinInt operand pair that forces
// vpmaddubsw-pair and model-write clamps; then the fused loop's corners.
func TestCountedSwarMatchesScalar(t *testing.T) {
	t.Run("fused corners", countedFusedCorners)
	t.Run("dense windows", func(t *testing.T) { checkWindows(t, false, true) })
	t.Run("sparse windows", func(t *testing.T) { checkWindows(t, true, true) })
	precs := []Prec{I8, I16, I4}
	seed := uint64(0xC0DE)
	for _, d := range precs {
		for _, m := range precs {
			for _, v := range []Variant{Generic, HandOpt} {
				for _, kind := range swarKinds {
					for _, n := range swarLens {
						for _, minInt := range []bool{false, true} {
							seed++
							name := fmt.Sprintf("dense D%v/M%v/%v/%v/n%d/minint=%v", d, m, v, kind, n, minInt)
							x, w0 := NewVec(d, n), NewVec(m, n)
							if minInt {
								fillMinInt(x)
								fillMinInt(w0)
							} else {
								fillRawVec(x, seed*3+1)
								fillRawVec(w0, seed*5+2)
							}
							swar := runCounted(false, d, m, v, kind, 0, seed, nil, x, w0, countedScalars)
							ref := runCounted(true, d, m, v, kind, 0, seed, nil, x, w0, countedScalars)
							if err := diffCounted(swar, ref); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if v != HandOpt {
								continue
							}
							if swar.c.Underflows == 0 {
								t.Errorf("%s: dropped update not counted: %+v", name, swar.c)
							}
							if minInt && n >= 2 && d == I8 && m == I8 && swar.c.Sat[fixed.SiteMulAdd8to16] == 0 {
								t.Errorf("%s: no pair-sum clamp counted: %+v", name, swar.c)
							}
							if minInt && swar.c.Sat[fixed.SiteSaturate] == 0 {
								t.Errorf("%s: no model-write clamp counted: %+v", name, swar.c)
							}
						}
					}
				}
			}
		}
	}

	const wlen = 37
	for _, d := range []Prec{I8, I16} {
		for _, m := range []Prec{I8, I16} {
			for _, kind := range swarKinds {
				for _, nnz := range swarLens {
					for _, minInt := range []bool{false, true} {
						seed++
						name := fmt.Sprintf("sparse D%v/M%v/%v/nnz%d/minint=%v", d, m, kind, nnz, minInt)
						idx := sparseIdx(nnz, wlen, seed)
						x, w0 := NewVec(d, nnz), NewVec(m, wlen)
						if minInt {
							fillMinInt(x)
							fillMinInt(w0)
						} else {
							fillRawVec(x, seed*7+3)
							fillRawVec(w0, seed*11+4)
						}
						swar := runCounted(false, d, m, HandOpt, kind, 0, seed, idx, x, w0, countedScalars)
						ref := runCounted(true, d, m, HandOpt, kind, 0, seed, idx, x, w0, countedScalars)
						if err := diffCounted(swar, ref); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if swar.c.Underflows == 0 {
							t.Errorf("%s: dropped update not counted: %+v", name, swar.c)
						}
						if minInt && swar.c.Sat[fixed.SiteSaturate] == 0 {
							t.Errorf("%s: no model-write clamp counted: %+v", name, swar.c)
						}
					}
				}
			}
		}
	}
}

// clampScalars drives the fused loop's own corners: scalars at the ends of
// the a-lane so the *rounding* clamp fires (|a*x| reaches 2, before any
// add), an ordinary one between them, and the zero-delta sources.
var clampScalars = []float32{-2, 1.99997, 0.371, 2, 0.002, -1.9999}

// countedFusedCorners is the part of TestCountedSwarMatchesScalar for what
// the fused block loop adds: QShared at reuse periods 1, 3, 8 and 32 — with ragged
// lengths, so every call after the first starts inside a reuse window and
// blocks straddle it — scalars that trip the rounding clamp, every lane
// width pair, dense and sparse, every NumCounts field. A single a = -2
// update of a zero model by an all-MinInt x is checked by hand: every
// delta clamps in the rounding, none in the add, none feeds the bias.
func countedFusedCorners(t *testing.T) {
	seed := uint64(0xF05ED)
	for _, d := range []Prec{I8, I16} {
		for _, m := range []Prec{I8, I16} {
			for _, period := range []int{1, 3, 8, 32} {
				for _, n := range swarLens {
					for _, sparse := range []bool{false, true} {
						seed++
						name := fmt.Sprintf("D%v/M%v/period%d/n%d/sparse=%v", d, m, period, n, sparse)
						wlen := n
						var idx []int32
						if sparse {
							wlen = 37
							idx = sparseIdx(n, wlen, seed)
						}
						x, w0 := NewVec(d, n), NewVec(m, wlen)
						fillRawVec(x, seed*3+1)
						fillRawVec(w0, seed*5+2)
						swar := runCounted(false, d, m, HandOpt, QShared, period, seed, idx, x, w0, clampScalars)
						ref := runCounted(true, d, m, HandOpt, QShared, period, seed, idx, x, w0, clampScalars)
						if err := diffCounted(swar, ref); err != nil {
							t.Fatalf("%s: %v", name, err)
						}

						if sparse {
							continue
						}
						fillMinInt(x)
						w0.Zero()
						one := runCounted(false, d, m, HandOpt, QShared, period, seed, nil, x, w0, []float32{-2})
						if err := diffCounted(one, runCounted(true, d, m, HandOpt, QShared, period, seed, nil, x, w0, []float32{-2})); err != nil {
							t.Fatalf("%s rounding clamp: %v", name, err)
						}
						if got := one.c.Sat[fixed.SiteSaturate]; got != uint64(n) || one.c.BiasN != 0 || one.c.BiasSumQ != 0 {
							t.Errorf("%s rounding clamp: Sat %d BiasN %d BiasSumQ %g, want %d 0 0", name, got, one.c.BiasN, one.c.BiasSumQ, n)
						}
						if got := one.w.Raw(n - 1); got != m.Fixed().MaxInt() {
							t.Errorf("%s rounding clamp: w = %d, want MaxInt", name, got)
						}
					}
				}
			}
		}
	}
}

// FuzzCountedSwarMatchesScalar is the same property under fuzzing: raw
// holds the operand bytes (dataset lanes first, then model lanes, both
// reinterpreted at the selected widths), sel picks D, M, the rounding kind,
// dense vs sparse and (top two bits) QShared's reuse period, and a1/a2 are
// the AXPY scalars. Plain `go test`
// runs the committed corpus under testdata/fuzz.
func FuzzCountedSwarMatchesScalar(f *testing.F) {
	minInt8 := make([]byte, 48)
	for i := range minInt8 {
		minInt8[i] = 0x80
	}
	f.Add(minInt8, uint8(0), float32(1.9), float32(1.9))  // D8M8 dense: pair-sum and write clamps
	f.Add(minInt8, uint8(3), float32(-1.9), float32(0.5)) // D16M16 dense
	f.Add([]byte{1, 2, 3, 250, 128, 127, 9}, uint8(1), float32(1e-6), float32(0.002))
	f.Add([]byte("ragged-tail-and-then-some-more-lanes!"), uint8(0x24), float32(0.371), float32(-1.044))
	// The fused loop's corners: rounding clamps (|a| at the lane ends) under
	// QShared (kind 3 << 2) at periods 1, 3, 32; 13 lanes leave the second
	// update's blocks straddling the reuse window; D8M16, D16M8, sparse.
	f.Add(minInt8[:26], uint8(0x0C|0x40), float32(-2), float32(1.99997))
	f.Add(minInt8[:39], uint8(0x0C|0x80|0x02), float32(2), float32(-2))
	f.Add(minInt8[:39], uint8(0x0C|0xC0|0x01), float32(-1.9999), float32(0.371))
	f.Add([]byte("straddles-the-reuse-window-twice-over"), uint8(0x0C|0x80|0x20|0x03), float32(1.99997), float32(-2))
	f.Fuzz(func(t *testing.T, raw []byte, sel uint8, a1, a2 float32) {
		if a1 != a1 || a2 != a2 {
			t.Skip("NaN scalar")
		}
		d := []Prec{I8, I16}[sel&1]
		m := []Prec{I8, I16}[sel>>1&1]
		kind := swarKinds[int(sel>>2&7)%len(swarKinds)]
		sparse := sel>>5&1 == 1
		period := []int{0, 1, 3, 32}[sel>>6]

		// Split raw evenly between the operands; each needs whole lanes.
		n := len(raw) / int((d.Bits()+m.Bits())/8)
		if n == 0 {
			t.Skip("no whole element")
		}
		x, w0 := NewVec(d, n), NewVec(m, n)
		pos := 0
		fill := func(v Vec) {
			for i := 0; i < n; i++ {
				if v.P == I8 {
					v.SetRaw(i, int32(int8(raw[pos])))
					pos++
				} else {
					v.SetRaw(i, int32(int16(uint16(raw[pos])|uint16(raw[pos+1])<<8)))
					pos += 2
				}
			}
		}
		fill(x)
		fill(w0)
		var idx []int32
		if sparse {
			idx = sparseIdx(n, n, uint64(sel)+uint64(n))
		}
		as := []float32{a1, a2}
		seed := uint64(sel)<<8 | uint64(n&0xFF)
		swar := runCounted(false, d, m, HandOpt, kind, period, seed, idx, x, w0, as)
		ref := runCounted(true, d, m, HandOpt, kind, period, seed, idx, x, w0, as)
		if err := diffCounted(swar, ref); err != nil {
			t.Fatalf("D%v M%v %v period=%d sparse=%v n=%d a=(%g, %g): %v", d, m, kind, period, sparse, n, a1, a2, err)
		}
	})
}
