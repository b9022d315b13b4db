package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"buckwild/internal/prng"
	"buckwild/internal/simd"
)

func randFloats(n int, seed uint32, scale float32) []float32 {
	g := prng.NewXorshift32(seed)
	out := make([]float32, n)
	for i := range out {
		out[i] = (prng.Float32(g)*2 - 1) * scale
	}
	return out
}

// mustSparse is NewSparse that panics on error.
func mustSparse(d, m Prec, v Variant, q *Quantizer, idxBits uint) *Sparse {
	k, err := NewSparse(d, m, v, q, idxBits)
	if err != nil {
		panic(err)
	}
	return k
}

func refDot(x, w []float32) float64 {
	var s float64
	for i := range x {
		s += float64(x[i]) * float64(w[i])
	}
	return s
}

func TestPrecBasics(t *testing.T) {
	if F32.Bits() != 32 || I16.Bits() != 16 || I8.Bits() != 8 || I4.Bits() != 4 {
		t.Error("Bits wrong")
	}
	if I4.Bytes() != 0.5 {
		t.Errorf("I4.Bytes = %v, want 0.5", I4.Bytes())
	}
	if !F32.IsFloat() || I8.IsFloat() {
		t.Error("IsFloat wrong")
	}
	for _, s := range []string{"32f", "16", "8", "4"} {
		p, err := ParsePrec(s)
		if err != nil {
			t.Fatalf("ParsePrec(%q): %v", s, err)
		}
		if p.String() != s {
			t.Errorf("round-trip %q -> %v", s, p)
		}
	}
	if _, err := ParsePrec("12"); err == nil {
		t.Error("ParsePrec(12) should fail")
	}
}

func TestVecBasics(t *testing.T) {
	for _, p := range []Prec{F32, I16, I8, I4} {
		v := NewVec(p, 10)
		if v.Len() != 10 {
			t.Errorf("%v: Len = %d", p, v.Len())
		}
		var q *Quantizer
		if p != F32 {
			q = MustQuantizer(p, QBiased, 0, 1)
		}
		v.Set(3, 0.5, q)
		if got := v.At(3); math.Abs(float64(got-0.5)) > 0.26 { // I4 quantum is 0.25
			t.Errorf("%v: At(3) = %v, want ~0.5", p, got)
		}
		c := v.Clone()
		c.Zero()
		if c.At(3) != 0 {
			t.Errorf("%v: Zero failed", p)
		}
		if v.At(3) == 0 {
			t.Errorf("%v: Clone aliases original", p)
		}
	}
}

func TestVecFillFloats(t *testing.T) {
	xs := []float32{0.25, -0.5, 1}
	v := NewVec(I8, 3)
	q := MustQuantizer(I8, QBiased, 0, 1)
	v.Fill(xs, q)
	got := v.Floats()
	for i := range xs {
		if got[i] != xs[i] { // all exactly representable in Q8.6
			t.Errorf("Floats[%d] = %v, want %v", i, got[i], xs[i])
		}
	}
}

// quantizeVec builds a Vec of precision p holding the quantized xs.
func quantizeVec(p Prec, xs []float32, seed uint64) Vec {
	v := NewVec(p, len(xs))
	var q *Quantizer
	if p != F32 {
		q = MustQuantizer(p, QBiased, 0, seed)
	}
	v.Fill(xs, q)
	return v
}

func dotTolerance(d, m Prec, n int) float64 {
	// Quantizing each operand perturbs each product by at most
	// ~(qx*|w| + qw*|x|); with |x|,|w| <= 1 a conservative elementwise
	// bound is qx + qw + qx*qw, summed over n elements, plus slack for
	// the float accumulation.
	tol := 0.0
	if !d.IsFloat() {
		tol += float64(d.Fixed().Quantum())
	}
	if !m.IsFloat() {
		tol += float64(m.Fixed().Quantum())
	}
	return tol*float64(n)*0.6 + 1e-3*float64(n)/1000 + 1e-6
}

func TestDenseDotAllCombos(t *testing.T) {
	const n = 513 // odd length exercises the pair tail
	xs := randFloats(n, 1, 1)
	ws := randFloats(n, 2, 1)
	ref := refDot(xs, ws)
	combos := []struct{ d, m Prec }{
		{F32, F32}, {I8, F32}, {I16, F32}, {F32, I8}, {F32, I16},
		{I16, I16}, {I8, I16}, {I16, I8}, {I8, I8}, {I4, I4},
	}
	for _, c := range combos {
		x := quantizeVec(c.d, xs, 3)
		w := quantizeVec(c.m, ws, 4)
		for _, v := range []Variant{Generic, HandOpt} {
			var q *Quantizer
			if c.m != F32 {
				q = MustQuantizer(c.m, QBiased, 0, 5)
			}
			k := MustDense(c.d, c.m, v, q)
			got := float64(k.Dot(x, w))
			tol := dotTolerance(c.d, c.m, n)
			if c.d == I4 { // 4-bit quantization error is large
				tol *= 1.5
			}
			if math.Abs(got-ref) > tol {
				t.Errorf("D%vM%v %v: dot = %v, ref = %v (tol %v)", c.d, c.m, v, got, ref, tol)
			}
		}
	}
}

func TestHandOptVsGenericDotAgree(t *testing.T) {
	// On identical quantized inputs the two variants differ only by
	// accumulation order/width; results must be very close.
	const n = 1000
	xs := randFloats(n, 7, 1)
	ws := randFloats(n, 8, 1)
	for _, c := range []struct{ d, m Prec }{{I8, I8}, {I16, I16}, {I8, I16}} {
		x := quantizeVec(c.d, xs, 1)
		w := quantizeVec(c.m, ws, 2)
		q := MustQuantizer(c.m, QBiased, 0, 3)
		g := MustDense(c.d, c.m, Generic, q).Dot(x, w)
		h := MustDense(c.d, c.m, HandOpt, q).Dot(x, w)
		if math.Abs(float64(g-h)) > 0.05 {
			t.Errorf("D%vM%v: generic %v vs handopt %v", c.d, c.m, g, h)
		}
	}
}

func TestDotSaturationPairPath(t *testing.T) {
	// All-minimum 8-bit inputs saturate the pair accumulator, exactly
	// as vpmaddubsw would: each pair contributes sat16((-128)^2 * 2) =
	// 32767 instead of 32768.
	n := 4
	x := NewVec(I8, n)
	w := NewVec(I8, n)
	for i := 0; i < n; i++ {
		x.SetRaw(i, -128)
		w.SetRaw(i, -128)
	}
	q := MustQuantizer(I8, QBiased, 0, 1)
	k := MustDense(I8, I8, HandOpt, q)
	got := k.Dot(x, w)
	want := float32(2*32767) / (64 * 64)
	if math.Abs(float64(got-want)) > 1e-4 {
		t.Errorf("saturating dot = %v, want %v", got, want)
	}
	// Sanity: 127*127 pairs do NOT saturate (2*16129 = 32258 < 32767).
	for i := 0; i < n; i++ {
		x.SetRaw(i, 127)
		w.SetRaw(i, 127)
	}
	got = k.Dot(x, w)
	want = float32(4*127*127) / (64 * 64)
	if math.Abs(float64(got-want)) > 1e-4 {
		t.Errorf("non-saturating dot = %v, want %v", got, want)
	}
}

func TestDenseAxpyFloatModel(t *testing.T) {
	n := 64
	xs := randFloats(n, 11, 1)
	ws := randFloats(n, 12, 1)
	for _, v := range []Variant{Generic, HandOpt} {
		x := quantizeVec(F32, xs, 0)
		w := quantizeVec(F32, ws, 0)
		k := MustDense(F32, F32, v, nil)
		k.Axpy(0.5, x, w)
		for i := 0; i < n; i++ {
			want := ws[i] + 0.5*xs[i]
			if math.Abs(float64(w.F32[i]-want)) > 1e-6 {
				t.Fatalf("%v: axpy[%d] = %v, want %v", v, i, w.F32[i], want)
			}
		}
	}
}

func TestDenseAxpyIntModelGeneric(t *testing.T) {
	// With exactly representable values and biased rounding, the generic
	// AXPY result is the quantized sum.
	x := quantizeVec(I8, []float32{0.5, -0.25, 1}, 0)
	w := quantizeVec(I8, []float32{0.25, 0.25, -1}, 0)
	q := MustQuantizer(I8, QBiased, 0, 1)
	k := MustDense(I8, I8, Generic, q)
	k.Axpy(0.5, x, w) // w + 0.5x = {0.5, 0.125, -0.5}
	want := []float32{0.5, 0.125, -0.5}
	for i := range want {
		if got := w.At(i); got != want[i] {
			t.Errorf("axpy[%d] = %v, want %v", i, got, want[i])
		}
	}
}

func TestDenseAxpyIntPipelineUnbiasedMean(t *testing.T) {
	// The integer AXPY pipeline must be unbiased: across many trials of
	// updating a zero model with a tiny step, the mean update equals
	// a*x even though each individual update is a whole quantum.
	const trials = 40000
	a := float32(0.001)
	xval := float32(0.75)
	q := MustQuantizer(I8, QXorshift, 0, 99)
	k := MustDense(I8, I8, HandOpt, q)
	x := quantizeVec(I8, []float32{xval}, 0)
	var sum float64
	for i := 0; i < trials; i++ {
		w := NewVec(I8, 1)
		k.Axpy(a, x, w)
		sum += float64(w.At(0))
	}
	mean := sum / trials
	want := float64(a * xval)
	if math.Abs(mean-want) > float64(a*xval)*0.1+1e-5 {
		t.Errorf("mean update = %v, want ~%v", mean, want)
	}
}

func TestDenseAxpyBiasedKillsSmallUpdates(t *testing.T) {
	// Biased rounding drops sub-quantum updates entirely -- the
	// statistical-efficiency failure mode of Figure 5a.
	a := float32(0.001)
	q := MustQuantizer(I8, QBiased, 0, 1)
	k := MustDense(I8, I8, HandOpt, q)
	x := quantizeVec(I8, []float32{0.75}, 0)
	w := NewVec(I8, 1)
	for i := 0; i < 1000; i++ {
		k.Axpy(a, x, w)
	}
	if w.At(0) != 0 {
		t.Errorf("biased sub-quantum updates moved the model to %v", w.At(0))
	}
}

func TestAxpyScalarSaturation(t *testing.T) {
	// A huge step scalar saturates the broadcast lane instead of
	// overflowing.
	if quantizeScalarA(10) != 32767 {
		t.Error("positive scalar should saturate")
	}
	if quantizeScalarA(-10) != -32768 {
		t.Error("negative scalar should saturate")
	}
	if quantizeScalarA(0) != 0 {
		t.Error("zero scalar")
	}
}

func TestModelSaturationOnRepeatedUpdates(t *testing.T) {
	// Repeated large updates pin the model at the format bound.
	q := MustQuantizer(I8, QBiased, 0, 1)
	k := MustDense(I8, I8, HandOpt, q)
	x := quantizeVec(I8, []float32{1}, 0)
	w := NewVec(I8, 1)
	for i := 0; i < 100; i++ {
		k.Axpy(1, x, w)
	}
	if w.Raw(0) != 127 {
		t.Errorf("model raw = %d, want saturation at 127", w.Raw(0))
	}
}

func TestNewDenseErrors(t *testing.T) {
	if _, err := NewDense(I8, I8, Generic, nil); err == nil {
		t.Error("int model without quantizer should fail")
	}
	q := MustQuantizer(I8, QBiased, 0, 1)
	if _, err := NewDense(I8, F32, Generic, q); err == nil {
		t.Error("float model with quantizer should fail")
	}
	if _, err := NewDense(I16, I16, NewInsn, MustQuantizer(I16, QBiased, 0, 1)); err == nil {
		t.Error("NewInsn with 16-bit dataset should fail")
	}
}

func TestSparseMatchesDense(t *testing.T) {
	// A sparse vector with all positions present must match the dense
	// kernel exactly (same pipelines).
	const n = 256
	xs := randFloats(n, 21, 1)
	ws := randFloats(n, 22, 1)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	for _, c := range []struct{ d, m Prec }{{I8, I8}, {I16, I16}, {F32, F32}} {
		var qd, qs *Quantizer
		if c.m != F32 {
			qd = MustQuantizer(c.m, QBiased, 0, 5)
			qs = MustQuantizer(c.m, QBiased, 0, 5)
		}
		x := quantizeVec(c.d, xs, 1)
		wDense := quantizeVec(c.m, ws, 2)
		wSparse := wDense.Clone()
		dk := MustDense(c.d, c.m, HandOpt, qd)
		sk := mustSparse(c.d, c.m, HandOpt, qs, 32)
		dDot := dk.Dot(x, wDense)
		sDot := sk.Dot(idx, x, wSparse)
		// Pipelines differ (paired vs individual accumulation), so
		// allow tiny slack for the 8-bit saturating pair path.
		if math.Abs(float64(dDot-sDot)) > 0.01 {
			t.Errorf("D%vM%v: dense dot %v vs sparse dot %v", c.d, c.m, dDot, sDot)
		}
		dk.Axpy(0.125, x, wDense)
		sk.Axpy(0.125, idx, x, wSparse)
		for i := 0; i < n; i++ {
			if dv, sv := wDense.At(i), wSparse.At(i); dv != sv {
				t.Fatalf("D%vM%v: axpy diverges at %d: %v vs %v", c.d, c.m, i, dv, sv)
			}
		}
	}
}

func TestSparseSubsetOnlyTouchesIndexed(t *testing.T) {
	xs := []float32{0.5, -0.5}
	idx := []int32{3, 7}
	x := quantizeVec(I8, xs, 1)
	w := NewVec(I8, 10)
	q := MustQuantizer(I8, QBiased, 0, 1)
	k := mustSparse(I8, I8, Generic, q, 16)
	k.Axpy(1, idx, x, w)
	for i := 0; i < 10; i++ {
		want := float32(0)
		switch i {
		case 3:
			want = 0.5
		case 7:
			want = -0.5
		}
		if got := w.At(i); got != want {
			t.Errorf("w[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestNewSparseErrors(t *testing.T) {
	if _, err := NewSparse(I8, I8, Generic, nil, 32); err == nil {
		t.Error("int model without quantizer should fail")
	}
	q := MustQuantizer(I8, QBiased, 0, 1)
	if _, err := NewSparse(I8, I8, Generic, q, 12); err == nil {
		t.Error("bad index precision should fail")
	}
}

func TestQuantizerKinds(t *testing.T) {
	for _, kind := range []QuantKind{QBiased, QMersenne, QXorshift, QShared, QHardware} {
		q, err := NewQuantizer(I8, kind, 8, 42)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		// Exactly representable values survive all kinds.
		if got := q.Quantize(0.5); got != 32 {
			t.Errorf("%v: Quantize(0.5) = %d, want 32", kind, got)
		}
		if kind.Unbiased() == (kind == QBiased) {
			t.Errorf("%v: Unbiased() inconsistent", kind)
		}
	}
	if _, err := NewQuantizer(F32, QBiased, 0, 1); err == nil {
		t.Error("quantizer for float model should fail")
	}
}

func TestQuantizerSharedIsUnbiased(t *testing.T) {
	q := MustQuantizer(I8, QShared, 8, 7)
	const n = 100000
	var sum int64
	for i := 0; i < n; i++ {
		sum += int64(q.Quantize(2.5 / 64))
	}
	mean := float64(sum) / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Errorf("shared-randomness mean = %v, want ~2.5", mean)
	}
}

func TestPropertyAxpyNeverEscapesFormat(t *testing.T) {
	q := MustQuantizer(I8, QXorshift, 0, 3)
	k := MustDense(I8, I8, HandOpt, q)
	check := func(a float32, raws []int8) bool {
		if len(raws) == 0 || a != a || math.Abs(float64(a)) > 100 {
			return true
		}
		x := NewVec(I8, len(raws))
		w := NewVec(I8, len(raws))
		for i, r := range raws {
			x.SetRaw(i, int32(r))
			w.SetRaw(i, int32(-r))
		}
		k.Axpy(a, x, w)
		for i := range raws {
			r := w.Raw(i)
			if r > 127 || r < -128 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestVariantString(t *testing.T) {
	if Generic.String() != "generic" || HandOpt.String() != "handopt" || NewInsn.String() != "newinsn" {
		t.Error("Variant.String wrong")
	}
	if QShared.String() != "unbiased-shared" {
		t.Error("QuantKind.String wrong")
	}
}

func TestPropertyDotBilinear(t *testing.T) {
	// Property: for float kernels the dot is bilinear; for quantized
	// kernels it is within quantization error of the float dot (already
	// covered above). Here: scaling w by -1 negates the dot exactly for
	// the integer pipeline (symmetric grid apart from the -128 edge).
	q := MustQuantizer(I8, QBiased, 0, 3)
	k := MustDense(I8, I8, HandOpt, q)
	check := func(raws []int8) bool {
		if len(raws) == 0 {
			return true
		}
		n := len(raws)
		x := NewVec(I8, n)
		w := NewVec(I8, n)
		wn := NewVec(I8, n)
		for i, r := range raws {
			if r == -128 {
				r = -127 // keep the grid symmetric
			}
			x.SetRaw(i, int32(r))
			w.SetRaw(i, int32(r/2+3))
			wn.SetRaw(i, -int32(r/2+3))
		}
		d := k.Dot(x, w)
		dn := k.Dot(x, wn)
		return math.Abs(float64(d+dn)) < 1e-4
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyStreamsNonNegativeAndMonotone(t *testing.T) {
	// Property: instruction streams grow monotonically with n for every
	// variant/precision combo.
	hwm := simd.Haswell()
	combos := []struct {
		d, m Prec
		v    Variant
	}{
		{I8, I8, Generic}, {I8, I8, HandOpt}, {I16, I16, HandOpt},
		{F32, F32, Generic}, {I8, I16, HandOpt}, {F32, I8, HandOpt},
	}
	for _, c := range combos {
		var q *Quantizer
		if c.m != F32 {
			q = MustQuantizer(c.m, QShared, 8, 1)
		}
		k := MustDense(c.d, c.m, c.v, q)
		prev := 0.0
		for _, n := range []int{32, 256, 1024, 8192} {
			cy := k.StepStream(n).Cycles(hwm)
			if cy <= prev {
				t.Errorf("D%vM%v %v: cycles not monotone at n=%d", c.d, c.m, c.v, n)
			}
			prev = cy
		}
	}
}

func TestI4StorageRange(t *testing.T) {
	// I4 vectors must never hold raw values outside [-8, 7] when set
	// through a quantizer.
	q := MustQuantizer(I4, QXorshift, 0, 5)
	v := NewVec(I4, 64)
	g := prng.NewXorshift32(9)
	for i := 0; i < 64; i++ {
		v.Set(i, prng.Float32(g)*8-4, q)
	}
	for i := 0; i < 64; i++ {
		if r := v.Raw(i); r < -8 || r > 7 {
			t.Fatalf("I4 raw value %d out of range", r)
		}
	}
}
