package dataset

import (
	"math"
	"testing"

	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
	"buckwild/internal/prng"
)

func TestGenDenseBasics(t *testing.T) {
	d, err := GenDense(DenseConfig{N: 64, M: 100, P: kernels.I8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 100 || d.N != 64 {
		t.Fatalf("shape: %d x %d", d.Len(), d.N)
	}
	for i := 0; i < d.Len(); i++ {
		if d.X[i].Len() != 64 || len(d.Raw[i]) != 64 {
			t.Fatal("row length wrong")
		}
		if d.Y[i] != 1 && d.Y[i] != -1 {
			t.Fatalf("label %v not in {-1,+1}", d.Y[i])
		}
		for j := 0; j < 64; j++ {
			if r := d.Raw[i][j]; r < -1 || r >= 1 {
				t.Fatalf("raw value %v outside [-1,1)", r)
			}
			// Quantized value within a quantum of the raw value.
			if diff := math.Abs(float64(d.X[i].At(j) - d.Raw[i][j])); diff > float64(fixed.Q8.Quantum()) {
				t.Fatalf("quantized value drifted by %v", diff)
			}
		}
	}
}

func TestGenDenseLabelsCorrelateWithTrueModel(t *testing.T) {
	d, err := GenDense(DenseConfig{N: 128, M: 2000, P: kernels.F32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := 0; i < d.Len(); i++ {
		var dot float64
		for j := 0; j < d.N; j++ {
			dot += float64(d.Raw[i][j]) * float64(d.TrueW[j])
		}
		if (dot >= 0) == (d.Y[i] > 0) {
			agree++
		}
	}
	frac := float64(agree) / float64(d.Len())
	if frac < 0.75 {
		t.Errorf("only %.0f%% of labels agree with the generating model", frac*100)
	}
	if frac == 1 {
		t.Error("labels are deterministic; the logistic noise is missing")
	}
}

func TestGenDenseErrors(t *testing.T) {
	if _, err := GenDense(DenseConfig{N: 0, M: 10}); err == nil {
		t.Error("zero N should fail")
	}
	if _, err := GenDense(DenseConfig{N: 10, M: 0}); err == nil {
		t.Error("zero M should fail")
	}
}

func TestGenDenseDeterministic(t *testing.T) {
	a, _ := GenDense(DenseConfig{N: 16, M: 10, P: kernels.I8, Seed: 42})
	b, _ := GenDense(DenseConfig{N: 16, M: 10, P: kernels.I8, Seed: 42})
	for i := range a.X {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels differ for same seed")
		}
		for j := 0; j < 16; j++ {
			if a.X[i].Raw(j) != b.X[i].Raw(j) {
				t.Fatal("data differs for same seed")
			}
		}
	}
	c, _ := GenDense(DenseConfig{N: 16, M: 10, P: kernels.I8, Seed: 43})
	same := true
	for j := 0; j < 16; j++ {
		if a.X[0].Raw(j) != c.X[0].Raw(j) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical first row")
	}
}

func TestGenSparseBasics(t *testing.T) {
	// The per-example count is floor(density*N): 0.001*65536 = 65.536 gives
	// 65, which rounding would make 66.
	for _, c := range []struct {
		n, m    int
		density float64
		wantNNZ int
	}{
		{1000, 50, 0.03, 30},
		{65536, 20, 0.001, 65},
	} {
		d, err := GenSparse(SparseConfig{N: c.n, M: c.m, Density: c.density, P: kernels.I8, IdxBits: 16, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() != c.m {
			t.Fatal("wrong M")
		}
		for i := 0; i < d.Len(); i++ {
			if len(d.Idx[i]) != c.wantNNZ {
				t.Fatalf("N=%d: example %d has %d nonzeros, want %d", c.n, i, len(d.Idx[i]), c.wantNNZ)
			}
			seen := map[int32]bool{}
			for _, j := range d.Idx[i] {
				if j < 0 || int(j) >= d.N {
					t.Fatalf("index %d out of range", j)
				}
				if seen[j] {
					t.Fatalf("duplicate index %d", j)
				}
				seen[j] = true
			}
		}
		if d.NNZ() != c.m*c.wantNNZ {
			t.Errorf("N=%d: NNZ = %d", c.n, d.NNZ())
		}
	}
}

// quantizeRow is Format.Quantize applied value by value from the same
// stream: the same results and the same draws, NaN drawing nothing.
func TestQuantizeRowMatchesQuantize(t *testing.T) {
	row := []float32{0.3, float32(math.NaN()), -0.7, float32(math.Inf(1)), float32(math.Inf(-1)), 5, -5, 1e-9, 0.015625}
	g := prng.NewXorshift128(4)
	for range 200 {
		row = append(row, uniform(g)*3)
	}
	for _, p := range []kernels.Prec{kernels.I4, kernels.I8, kernels.I16} {
		for _, mode := range []fixed.Rounding{fixed.Biased, fixed.Unbiased} {
			rs, ref := prng.NewXorshift32(9), prng.NewXorshift32(9)
			v := quantizeRow(p, row, mode, rs)
			for i, x := range row {
				if want := p.Fixed().Quantize(x, mode, ref); v.Raw(i) != want {
					t.Fatalf("%v %v: value %d (%v) = %d, want %d", p, mode, i, x, v.Raw(i), want)
				}
			}
			if rs.Uint32() != ref.Uint32() {
				t.Errorf("%v %v: quantizeRow drew a different number of words", p, mode)
			}
		}
	}
}

func TestGenSparseErrors(t *testing.T) {
	if _, err := GenSparse(SparseConfig{N: 10, M: 10, Density: 0, P: kernels.I8, IdxBits: 16}); err == nil {
		t.Error("zero density should fail")
	}
	if _, err := GenSparse(SparseConfig{N: 10, M: 10, Density: 2, P: kernels.I8, IdxBits: 16}); err == nil {
		t.Error("density > 1 should fail")
	}
	if _, err := GenSparse(SparseConfig{N: 10, M: 10, Density: 0.5, P: kernels.I8, IdxBits: 12}); err == nil {
		t.Error("bad index bits should fail")
	}
	if _, err := GenSparse(SparseConfig{N: 0, M: 10, Density: 0.5, P: kernels.I8, IdxBits: 16}); err == nil {
		t.Error("zero N should fail")
	}
}

func TestGenSparseMinimumOneNonzero(t *testing.T) {
	d, err := GenSparse(SparseConfig{N: 10, M: 5, Density: 0.01, P: kernels.I8, IdxBits: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Idx {
		if len(d.Idx[i]) < 1 {
			t.Fatal("example with zero nonzeros")
		}
	}
}

func TestGenDigits(t *testing.T) {
	d, err := GenDigits(DigitsConfig{W: 14, H: 14, Classes: 10, Train: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Images) != 200 || len(d.Labels) != 200 {
		t.Fatal("wrong count")
	}
	counts := make([]int, 10)
	for i, img := range d.Images {
		if len(img) != 14*14 {
			t.Fatal("wrong image size")
		}
		for _, p := range img {
			if p < 0 || p > 1 {
				t.Fatalf("pixel %v outside [0,1]", p)
			}
		}
		counts[d.Labels[i]]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Errorf("class %d has no samples", c)
		}
	}
}

func TestDigitsClassesDiffer(t *testing.T) {
	// Mean images of different classes must be distinguishable,
	// otherwise the task is unlearnable.
	d, err := GenDigits(DigitsConfig{W: 14, H: 14, Classes: 3, Train: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	means := make([][]float64, 3)
	counts := make([]int, 3)
	for c := range means {
		means[c] = make([]float64, 14*14)
	}
	for i, img := range d.Images {
		c := d.Labels[i]
		counts[c]++
		for j, p := range img {
			means[c][j] += float64(p)
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	var dist float64
	for j := range means[0] {
		diff := means[0][j] - means[1][j]
		dist += diff * diff
	}
	if math.Sqrt(dist) < 0.5 {
		t.Errorf("class mean separation %v too small", math.Sqrt(dist))
	}
}

func TestDigitsSplit(t *testing.T) {
	d, _ := GenDigits(DigitsConfig{W: 8, H: 8, Classes: 2, Train: 100, Seed: 3})
	tr, te := d.Split(0.8)
	if len(tr.Images) != 80 || len(te.Images) != 20 {
		t.Errorf("split sizes %d/%d", len(tr.Images), len(te.Images))
	}
	// Degenerate fractions stay in range.
	tr, te = d.Split(0)
	if len(tr.Images) < 1 || len(te.Images) < 1 {
		t.Error("split(0) degenerate")
	}
	tr, te = d.Split(1)
	if len(tr.Images) < 1 || len(te.Images) < 1 {
		t.Error("split(1) degenerate")
	}
}

func BenchmarkGenDense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenDense(DenseConfig{N: 4096, M: 2048, P: kernels.I8, Rounding: fixed.Unbiased, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
