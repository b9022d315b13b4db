package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

var (
	w2  = []float32{1, -1}
	xs2 = [][]float32{{1, 0}, {0, 1}, {1, 1}}
	ys2 = []float32{1, -1, 1}
)

func TestLogisticLoss(t *testing.T) {
	got, err := LogisticLoss(w2, xs2, ys2)
	if err != nil {
		t.Fatal(err)
	}
	// Margins: 1, 1, 0 -> losses log(1+e^-1), log(1+e^-1), log 2.
	want := (2*math.Log1p(math.Exp(-1)) + math.Log(2)) / 3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("LogisticLoss = %v, want %v", got, want)
	}
}

func TestLogisticLossStability(t *testing.T) {
	// Extreme margins must not overflow.
	big := []float32{1000}
	l1, err := LogisticLoss(big, [][]float32{{1}}, []float32{1})
	if err != nil || math.IsNaN(l1) || math.IsInf(l1, 0) || l1 < 0 {
		t.Errorf("huge positive margin: %v, %v", l1, err)
	}
	l2, err := LogisticLoss(big, [][]float32{{1}}, []float32{-1})
	if err != nil || math.Abs(l2-1000) > 1 {
		t.Errorf("huge negative margin loss = %v, want ~1000", l2)
	}
}

func TestSparseLogisticLossMatchesDense(t *testing.T) {
	w := []float32{0.5, -0.25, 0.75, 0}
	xs := [][]float32{{1, 0, 2, 0}, {0, 3, 0, 0}}
	ys := []float32{1, -1}
	dense, err := LogisticLoss(w, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	idx := [][]int32{{0, 2}, {1}}
	vals := [][]float32{{1, 2}, {3}}
	sparse, err := SparseLogisticLoss(w, idx, vals, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dense-sparse) > 1e-12 {
		t.Errorf("dense %v vs sparse %v", dense, sparse)
	}
}

func TestHingeLoss(t *testing.T) {
	got, err := HingeLoss(w2, xs2, ys2)
	if err != nil {
		t.Fatal(err)
	}
	// Margins 1, 1, 0 -> hinge 0, 0, 1.
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("HingeLoss = %v, want 1/3", got)
	}
}

func TestSquaredLoss(t *testing.T) {
	w := []float32{2}
	got, err := SquaredLoss(w, [][]float32{{1}, {2}}, []float32{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Residuals 0 and 2 -> (0 + 4/2)/2 = 1.
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("SquaredLoss = %v, want 1", got)
	}
}

func TestBinaryError(t *testing.T) {
	got, err := BinaryError(w2, xs2, ys2)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions: +, -, 0(>=0 -> +): all correct.
	if got != 0 {
		t.Errorf("BinaryError = %v, want 0", got)
	}
	// Flipped model misclassifies the first two examples; the third has
	// margin 0, predicts positive, and stays correct.
	got, _ = BinaryError([]float32{-1, 1}, xs2, ys2)
	if math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("flipped model error = %v, want 2/3", got)
	}
}

func TestShapeErrors(t *testing.T) {
	if _, err := LogisticLoss(w2, nil, nil); err == nil {
		t.Error("empty dataset should fail")
	}
	if _, err := LogisticLoss([]float32{1}, xs2, ys2); err == nil {
		t.Error("dim mismatch should fail")
	}
	if _, err := LogisticLoss(w2, xs2, ys2[:2]); err == nil {
		t.Error("label count mismatch should fail")
	}
	if _, err := SparseLogisticLoss(w2, [][]int32{{0}}, nil, nil); err == nil {
		t.Error("sparse mismatch should fail")
	}
	// A short row anywhere, not only the first, is a shape error — for
	// every dense loss, and never an index panic inside the dot.
	short := [][]float32{{1, 0}, {0, 1}, {1, 1}, {1, 1}, {1}, {0, 0}}
	ys := []float32{1, -1, 1, 1, -1, 1}
	for name, f := range map[string]func([]float32, [][]float32, []float32) (float64, error){
		"logistic": LogisticLoss, "hinge": HingeLoss, "squared": SquaredLoss, "binary": BinaryError,
	} {
		if _, err := f(w2, short, ys); err == nil || !strings.HasPrefix(err.Error(), "metrics:") {
			t.Errorf("%s: short row 4: err = %v, want a metrics: error", name, err)
		}
	}
}

// serialMean is the loop the dense losses were before Mean: one row at a
// time, one float64 add chain per inner product, terms added as they come.
// It is the oracle Mean must match bit for bit.
func serialMean(loss Loss, w []float32, xs [][]float32, ys []float32) float64 {
	var total float64
	for i, x := range xs {
		var d float64
		for j := range w {
			d += float64(w[j]) * float64(x[j])
		}
		total += loss(d, float64(ys[i]))
	}
	return total / float64(len(xs))
}

// lossData draws m rows of dimension n, labels and a model from a fixed
// xorshift stream.
func lossData(m, n int) (w []float32, xs [][]float32, ys []float32) {
	s := uint64(0x9E3779B97F4A7C15) ^ uint64(m*131+n)
	next := func() float32 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float32(int32(s>>32)) / (1 << 31)
	}
	w = make([]float32, n)
	for j := range w {
		w[j] = next()
	}
	xs, ys = make([][]float32, m), make([]float32, m)
	for i := range xs {
		xs[i] = make([]float32, n)
		for j := range xs[i] {
			xs[i][j] = next()
		}
		ys[i] = 1
		if next() < 0 {
			ys[i] = -1
		}
	}
	return w, xs, ys
}

// TestMeanMatchesSerialLoop pins the four-row, fanned-out evaluation to
// the old serial loop, bit for bit: every m mod 4, fewer rows than
// workers, worker counts that split the rows unevenly, all three losses.
func TestMeanMatchesSerialLoop(t *testing.T) {
	losses := map[string]Loss{"logistic": Logistic, "hinge": Hinge, "squared": Squared}
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 30, 61} {
		w, xs, ys := lossData(m, 37)
		for name, loss := range losses {
			want := serialMean(loss, w, xs, ys)
			for _, workers := range []int{1, 2, 3, 7} {
				got, err := Mean(loss, w, xs, ys, workers)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s m=%d workers=%d: Mean %v (%#x), serial loop %v (%#x)",
						name, m, workers, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestMeanAllocations: one evaluation allocates a fixed number of objects
// (the term buffer, the fan-out's closures), whatever the row count.
func TestMeanAllocations(t *testing.T) {
	allocs := func(m, workers int) float64 {
		w, xs, ys := lossData(m, 16)
		return testing.AllocsPerRun(20, func() {
			if _, err := Mean(Logistic, w, xs, ys, workers); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a := allocs(64, 1); a > 2 {
		t.Errorf("serial evaluation of 64 rows allocates %v objects, want <= 2", a)
	}
	if small, large := allocs(64, 3), allocs(1024, 3); large > small || small > 12 {
		t.Errorf("3-worker evaluation allocates %v objects at 64 rows, %v at 1024; want equal and small", small, large)
	}
}

func BenchmarkLogisticLoss(b *testing.B) {
	for _, shape := range [][2]int{{8192, 4096}, {2048, 512}} {
		w, xs, ys := lossData(shape[0], shape[1])
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%dx%d/workers%d", shape[0], shape[1], workers), func(b *testing.B) {
				b.SetBytes(int64(shape[0]) * int64(shape[1]) * 4)
				for i := 0; i < b.N; i++ {
					if _, err := Mean(Logistic, w, xs, ys, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{2, 8})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean = %v, %v", g, err)
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Error("negative values should fail")
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("empty should fail")
	}
}
