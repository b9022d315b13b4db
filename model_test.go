package buckwild

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func testModel(t *testing.T, dim int) *Model {
	t.Helper()
	w := make([]float32, dim)
	for j := range w {
		w[j] = float32(j%7) - 3
	}
	m, err := NewModel("D8M8", w)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPredictTypedErrors(t *testing.T) {
	m := testModel(t, 8)
	tests := []struct {
		name string
		call func() error
		want error
	}{
		{"sparse empty", func() error {
			_, err := m.PredictSparse(nil, nil)
			return err
		}, ErrEmptyExample},
		{"sparse length mismatch", func() error {
			_, err := m.PredictSparse([]int32{0, 1}, []float32{1})
			return err
		}, ErrDimension},
		{"sparse index out of range", func() error {
			_, err := m.PredictSparse([]int32{8}, []float32{1})
			return err
		}, ErrIndexRange},
		{"sparse negative index", func() error {
			_, err := m.PredictSparse([]int32{-1}, []float32{1})
			return err
		}, ErrIndexRange},
		{"dense empty", func() error {
			_, err := m.PredictDense(nil)
			return err
		}, ErrEmptyExample},
		{"dense dimension mismatch", func() error {
			_, err := m.PredictDense(make([]float32, 5))
			return err
		}, ErrDimension},
		{"batch empty example", func() error {
			_, err := m.PredictBatch([][]float32{make([]float32, 8), nil}, nil)
			return err
		}, ErrEmptyExample},
		{"batch out length mismatch", func() error {
			_, err := m.PredictBatch([][]float32{make([]float32, 8)}, make([]float32, 3))
			return err
		}, ErrDimension},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want errors.Is(err, %v)", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "buckwild:") {
				t.Errorf("error %q lacks buckwild: prefix", err)
			}
		})
	}
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel("bogus", make([]float32, 4)); err == nil || !strings.HasPrefix(err.Error(), "buckwild:") {
		t.Errorf("bad signature: %v", err)
	}
	if _, err := NewModel("D8M8", nil); err == nil {
		t.Error("empty weights should fail")
	}

	// The model copies its weights on the way in and out: neither
	// mutating the source nor the Weights() result can change what the
	// handle predicts.
	w := []float32{1, 2, 3, 4}
	m, err := NewModel("D8M8", w)
	if err != nil {
		t.Fatal(err)
	}
	before, err := m.PredictDense([]float32{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	w[0] = 100
	m.Weights()[1] = 100
	after, err := m.PredictDense([]float32{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("prediction changed after mutating source weights: %v -> %v", before, after)
	}
	if m.Dim() != 4 || m.Signature() != "D8M8" {
		t.Errorf("Dim/Signature: %d %v", m.Dim(), m.Signature())
	}
}

func TestPredictBatch(t *testing.T) {
	m := testModel(t, 6)
	xs := make([][]float32, 9)
	rng := rand.New(rand.NewSource(4))
	for i := range xs {
		xs[i] = make([]float32, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float32() - 0.5
		}
	}

	allocated, err := m.PredictBatch(xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocated) != len(xs) {
		t.Fatalf("allocated out length %d, want %d", len(allocated), len(xs))
	}

	out := make([]float32, len(xs))
	reused, err := m.PredictBatch(xs, out)
	if err != nil {
		t.Fatal(err)
	}
	if &reused[0] != &out[0] {
		t.Error("preallocated out was not reused")
	}
	for i := range xs {
		single, err := m.PredictDense(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(single) != math.Float32bits(allocated[i]) ||
			math.Float32bits(single) != math.Float32bits(reused[i]) {
			t.Errorf("example %d: batch %v/%v != single %v", i, allocated[i], reused[i], single)
		}
	}
}

// TestSavedModelHandleBitIdentity pins the one-predict-implementation
// rule: a model loaded from disk predicts bit-identically through the
// deprecated SavedModel wrappers, through its Handle(), and through a
// NewModel built from the same weights.
func TestSavedModelHandleBitIdentity(t *testing.T) {
	ds, err := GenerateDense("D8M8", 32, 400, 21)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(Config{Signature: "D8M8", Threads: 2, Epochs: 3, StepSize: 0.05, Seed: 9}, ds)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.bkm")
	if err := SaveModelFile(path, "D8M8", res.W); err != nil {
		t.Fatal(err)
	}
	sm, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sm.Handle()
	if err != nil {
		t.Fatal(err)
	}
	nm, err := NewModel(sm.Signature, sm.Weights)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 100; i++ {
		x := make([]float32, 32)
		var idx []int32
		var vals []float32
		for j := range x {
			x[j] = rng.Float32() - 0.5
			if rng.Intn(3) == 0 {
				idx = append(idx, int32(j))
				vals = append(vals, x[j])
			}
		}
		d1, err := h.PredictDense(x)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := nm.PredictDense(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(d1) != math.Float32bits(d2) {
			t.Fatalf("dense %d: Handle %x, NewModel %x", i, math.Float32bits(d1), math.Float32bits(d2))
		}
		if len(idx) == 0 {
			continue
		}
		s1, err := h.PredictSparse(idx, vals)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := nm.PredictSparse(idx, vals)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(s1) != math.Float32bits(s2) {
			t.Fatalf("sparse %d: Handle %x, NewModel %x", i, math.Float32bits(s1), math.Float32bits(s2))
		}
	}
}

// TestSnapshotPromoterEndToEnd drives the facade promotion pipeline: a
// supervised run's checkpoints flow through the Snapshotter, round-trip
// the framed model format, and land in the server as live promotions.
func TestSnapshotPromoterEndToEnd(t *testing.T) {
	srv, err := NewModelServer(ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ds, err := GenerateDense("D8M8", 24, 300, 17)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunDense(
		Config{Signature: "D8M8", Epochs: 3, StepSize: 0.05, Seed: 2},
		RunConfig{CheckpointDir: t.TempDir(), Snapshotter: SnapshotPromoter(srv)},
		ds,
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Promotions(); got == 0 {
		t.Fatal("no promotions after a supervised run with a SnapshotPromoter")
	}
	st := srv.Metrics().Snapshot()
	if st.PromotionsRefused != 0 {
		t.Errorf("refused promotions: %d", st.PromotionsRefused)
	}
	if st.ModelEpoch != 3 {
		t.Errorf("served model epoch = %d, want 3", st.ModelEpoch)
	}

	// The promoted model predicts exactly what the run's final weights
	// predict — the frame round-trip cannot perturb bits.
	m, err := NewModel("D8M8", rep.Result.W)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 24)
	for j := range x {
		x[j] = float32(j) / 24
	}
	want, err := m.PredictDense(x)
	if err != nil {
		t.Fatal(err)
	}
	live, _, _ := srv.Current()
	if live == nil {
		t.Fatal("no live model after promotion")
	}
	got, err := live.PredictDense(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float32bits(want) != math.Float32bits(got) {
		t.Errorf("promoted prediction %x != final-weights prediction %x", math.Float32bits(got), math.Float32bits(want))
	}
}
