package nn

import (
	"math"
	"testing"

	"buckwild/internal/dataset"
	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
	"buckwild/internal/prng"
	"buckwild/internal/simd"
)

func digits(t *testing.T, n int, seed uint64) (*dataset.Digits, *dataset.Digits) {
	t.Helper()
	d, err := dataset.GenDigits(dataset.DigitsConfig{W: 12, H: 12, Classes: 4, Train: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d.Split(0.8)
}

func TestQuantSpec(t *testing.T) {
	if _, err := NewQuantSpec(1, 8, fixed.Biased, 1); err == nil {
		t.Error("1-bit should fail")
	}
	if _, err := NewQuantSpec(8, 40, fixed.Biased, 1); err == nil {
		t.Error("40-bit should fail")
	}
	q, err := NewQuantSpec(8, 8, fixed.Biased, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := []float32{0.5, 0.123456, -1.7}
	q.QuantWeights(w)
	if w[0] != 0.5 {
		t.Error("representable value changed")
	}
	// All values on the Q8.6 grid.
	for _, v := range w {
		scaled := v * 64
		if scaled != float32(int32(scaled)) {
			t.Errorf("value %v not on the 8-bit grid", v)
		}
	}
	full := FullPrecision()
	x := []float32{0.123456}
	full.QuantActs(x)
	if x[0] != 0.123456 {
		t.Error("full precision must be identity")
	}
}

func TestQuantUnbiasedMean(t *testing.T) {
	q, err := NewQuantSpec(6, 32, fixed.Unbiased, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Mean of many quantizations of an off-grid value equals the value.
	const x = 0.11
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		w := []float32{x}
		q.QuantWeights(w)
		sum += float64(w[0])
	}
	if mean := sum / n; math.Abs(mean-x) > 0.003 {
		t.Errorf("unbiased weight rounding mean = %v, want ~%v", mean, x)
	}
}

func TestLeNetShapes(t *testing.T) {
	net, err := NewLeNet(LeNetConfig{W: 12, H: 12, Classes: 4, Quant: FullPrecision(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	img := make([]float32, 12*12)
	out := net.forward(img)
	if len(out) != 4 {
		t.Fatalf("output size %d, want 4", len(out))
	}
	if p := net.Predict(img); p < 0 || p >= 4 {
		t.Fatalf("Predict = %d", p)
	}
}

func TestLeNetConfigErrors(t *testing.T) {
	if _, err := NewLeNet(LeNetConfig{W: 4, H: 4, Classes: 4}); err == nil {
		t.Error("tiny input should fail")
	}
	if _, err := NewLeNet(LeNetConfig{W: 12, H: 12, Classes: 1}); err == nil {
		t.Error("single class should fail")
	}
}

func TestLeNetLearnsFullPrecision(t *testing.T) {
	train, test := digits(t, 600, 5)
	net, err := NewLeNet(LeNetConfig{W: 12, H: 12, Classes: 4, Quant: FullPrecision(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Train(train, test, 3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochLoss[len(res.EpochLoss)-1] >= res.EpochLoss[0]*0.8 {
		t.Errorf("loss did not fall: %v", res.EpochLoss)
	}
	if res.TestError > 0.4 { // chance is 0.75
		t.Errorf("test error %v too high", res.TestError)
	}
}

func TestLeNetLearnsAt8BitUnbiased(t *testing.T) {
	// Figure 7b: training remains accurate at 8 bits with unbiased
	// rounding.
	train, test := digits(t, 600, 6)
	q, err := NewQuantSpec(8, 8, fixed.Unbiased, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewLeNet(LeNetConfig{W: 12, H: 12, Classes: 4, Quant: q, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Train(train, test, 3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestError > 0.45 {
		t.Errorf("8-bit test error %v too high", res.TestError)
	}
}

func TestVeryLowPrecisionBiasedFails(t *testing.T) {
	// At very low precision, biased rounding should be clearly worse
	// than unbiased (the motivation for stochastic rounding).
	train, test := digits(t, 400, 7)
	run := func(r fixed.Rounding) float64 {
		q, err := NewQuantSpec(4, 8, r, 4)
		if err != nil {
			t.Fatal(err)
		}
		net, err := NewLeNet(LeNetConfig{W: 12, H: 12, Classes: 4, Quant: q, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Train(train, test, 3, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		return res.TestError
	}
	biased := run(fixed.Biased)
	unbiased := run(fixed.Unbiased)
	if unbiased > biased+0.05 {
		t.Errorf("unbiased (%v) should not trail biased (%v) at 4 bits", unbiased, biased)
	}
}

func TestTrainErrors(t *testing.T) {
	train, test := digits(t, 100, 8)
	net, _ := NewLeNet(LeNetConfig{W: 12, H: 12, Classes: 4, Quant: FullPrecision(), Seed: 1})
	if _, err := net.Train(train, test, 0, 0.1); err == nil {
		t.Error("zero epochs should fail")
	}
	empty := &dataset.Digits{}
	if _, err := net.Train(empty, test, 1, 0.1); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestSoftmaxLoss(t *testing.T) {
	probs, loss := softmaxLoss([]float32{1, 1, 1}, 0)
	for _, p := range probs {
		if math.Abs(float64(p)-1.0/3) > 1e-6 {
			t.Errorf("uniform softmax wrong: %v", probs)
		}
	}
	if math.Abs(loss-math.Log(3)) > 1e-6 {
		t.Errorf("loss = %v, want log 3", loss)
	}
	// Huge logits must not overflow.
	_, loss = softmaxLoss([]float32{1000, -1000}, 0)
	if math.IsNaN(loss) || loss > 1e-6 {
		t.Errorf("confident loss = %v", loss)
	}
}

func TestConvLayerGradientCheck(t *testing.T) {
	// Finite-difference check of the conv layer's weight gradient.
	g := prng.NewXorshift128(3)
	c, err := newConv(6, 6, 1, 2, 3, g)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float32, 36)
	for i := range in {
		in[i] = prng.Float32(g) - 0.5
	}
	// Loss = sum of outputs; gradient of loss w.r.t. out = ones.
	ones := make([]float32, c.outSize())
	for i := range ones {
		ones[i] = 1
	}
	c.forward(in)
	c.backward(ones)
	analytic := append([]float32(nil), c.dw...)
	const eps = 1e-3
	for _, wi := range []int{0, 3, 7, 11} {
		orig := c.w[wi]
		c.w[wi] = orig + eps
		up := sum(c.forward(in))
		c.w[wi] = orig - eps
		down := sum(c.forward(in))
		c.w[wi] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(float64(analytic[wi])-numeric) > 0.05*math.Abs(numeric)+1e-2 {
			t.Errorf("dw[%d]: analytic %v vs numeric %v", wi, analytic[wi], numeric)
		}
	}
}

func sum(xs []float32) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s
}

func TestPoolLayer(t *testing.T) {
	p := newPool(4, 4, 1)
	in := make([]float32, 16)
	in[5] = 3 // (1,1) in the top-left 2x2 block? index 5 = y1,x1
	in[2] = 7 // top-right block
	out := p.forward(in)
	if len(out) != 4 {
		t.Fatalf("pool out size %d", len(out))
	}
	if out[0] != 3 || out[1] != 7 {
		t.Errorf("pool values wrong: %v", out)
	}
	grad := []float32{1, 2, 0, 0}
	dx := p.backward(grad)
	if dx[5] != 1 || dx[2] != 2 {
		t.Errorf("pool backward routed wrong: %v", dx)
	}
}

func TestConvThroughputLinearSpeedup(t *testing.T) {
	// Figure 7a: low precision yields roughly linear conv throughput
	// gains over the hand-optimized float layer.
	cost := simd.Haswell()
	dims := AlexNetConv1()
	speedup := func(p kernels.Prec) float64 {
		base, err := ConvCycles(cost, dims, kernels.F32, kernels.F32, kernels.HandOpt)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ConvCycles(cost, dims, p, p, kernels.HandOpt)
		if err != nil {
			t.Fatal(err)
		}
		return base / c
	}
	s16, s8 := speedup(kernels.I16), speedup(kernels.I8)
	if s16 < 1.4 || s16 > 2.6 {
		t.Errorf("16-bit conv speedup = %v, want ~2", s16)
	}
	if s8 < 2.2 || s8 > 4.5 {
		t.Errorf("8-bit conv speedup = %v, want ~3-4", s8)
	}
	if s8 <= s16 {
		t.Error("8-bit must beat 16-bit")
	}
}

func TestConvDims(t *testing.T) {
	d := AlexNetConv1()
	if d.OutW() != 55 || d.OutH() != 55 {
		t.Errorf("AlexNet conv1 output %dx%d, want 55x55", d.OutW(), d.OutH())
	}
	if d.MACs() != int64(55*55*96)*int64(3*11*11) {
		t.Error("MACs wrong")
	}
	if _, err := ConvCycles(simd.Haswell(), ConvDims{}, kernels.I8, kernels.I8, kernels.HandOpt); err == nil {
		t.Error("bad dims should fail")
	}
}
