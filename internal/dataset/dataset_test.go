package dataset

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
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

func TestGenDenseRegression(t *testing.T) {
	d, err := GenDense(DenseConfig{N: 32, M: 200, P: kernels.F32, Regression: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nonPM := false
	for _, y := range d.Y {
		if y != 1 && y != -1 {
			nonPM = true
		}
	}
	if !nonPM {
		t.Error("regression targets look like classification labels")
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
	d, err := GenSparse(SparseConfig{N: 1000, M: 50, Density: 0.03, P: kernels.I8, IdxBits: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 50 {
		t.Fatal("wrong M")
	}
	wantNNZ := 30
	for i := 0; i < d.Len(); i++ {
		if len(d.Idx[i]) != wantNNZ {
			t.Fatalf("example %d has %d nonzeros, want %d", i, len(d.Idx[i]), wantNNZ)
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
	if d.NNZ() != 50*wantNNZ {
		t.Errorf("NNZ = %d", d.NNZ())
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

func TestDeltaRoundTrip(t *testing.T) {
	idx := []int32{3, 7, 300, 301, 70000}
	for _, bits := range []uint{8, 16, 32} {
		gaps, padding, err := DeltaEncode(idx, bits)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		got := DeltaDecode(gaps, padding)
		if len(got) != len(idx) {
			t.Fatalf("bits=%d: decoded %d indices, want %d", bits, len(got), len(idx))
		}
		for i := range idx {
			if got[i] != idx[i] {
				t.Fatalf("bits=%d: idx[%d] = %d, want %d", bits, i, got[i], idx[i])
			}
		}
		mg, _ := MaxGap(bits)
		for _, g := range gaps {
			if g > mg || g < 0 {
				t.Fatalf("bits=%d: gap %d out of range", bits, g)
			}
		}
	}
}

func TestDeltaPaddingOnlyWhenNeeded(t *testing.T) {
	idx := []int32{1, 2, 3}
	gaps, padding, err := DeltaEncode(idx, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(padding) != 0 || len(gaps) != 3 {
		t.Errorf("small gaps should need no padding: %v %v", gaps, padding)
	}
	// A 1000-gap at 8 bits needs ceil(1000/255)-1 = 3 padding entries.
	gaps, padding, err = DeltaEncode([]int32{1000}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(padding) != 3 {
		t.Errorf("padding entries = %d, want 3", len(padding))
	}
	n, err := EncodedLen([]int32{1000}, 8)
	if err != nil || n != 4 {
		t.Errorf("EncodedLen = %d, want 4", n)
	}
}

func TestDeltaErrors(t *testing.T) {
	if _, _, err := DeltaEncode([]int32{5, 3}, 8); err == nil {
		t.Error("unsorted should fail")
	}
	if _, _, err := DeltaEncode([]int32{3, 3}, 8); err == nil {
		t.Error("duplicates should fail")
	}
	if _, _, err := DeltaEncode([]int32{-1}, 8); err == nil {
		t.Error("negative should fail")
	}
	if _, _, err := DeltaEncode([]int32{1}, 12); err == nil {
		t.Error("bad precision should fail")
	}
	if _, err := MaxGap(9); err == nil {
		t.Error("MaxGap(9) should fail")
	}
}

func TestDeltaPropertyRoundTrip(t *testing.T) {
	check := func(raw []uint16, bits8 bool) bool {
		if len(raw) == 0 {
			return true
		}
		seen := map[int32]bool{}
		var idx []int32
		for _, r := range raw {
			v := int32(r)
			if !seen[v] {
				seen[v] = true
				idx = append(idx, v)
			}
		}
		sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
		bits := uint(16)
		if bits8 {
			bits = 8
		}
		gaps, padding, err := DeltaEncode(idx, bits)
		if err != nil {
			return false
		}
		got := DeltaDecode(gaps, padding)
		if len(got) != len(idx) {
			return false
		}
		for i := range idx {
			if got[i] != idx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
