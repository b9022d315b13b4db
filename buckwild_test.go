package buckwild

import (
	"context"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

func TestParseSignature(t *testing.T) {
	sig, err := ParseSignature("D8M8")
	if err != nil {
		t.Fatal(err)
	}
	if sig.String() != "D8M8" {
		t.Errorf("round-trip: %v", sig)
	}
	if _, err := ParseSignature("bogus"); err == nil {
		t.Error("bad signature should fail")
	}
}

func TestPredictThroughput(t *testing.T) {
	sig, _ := ParseSignature("D8M8")
	one, err := PredictThroughput(sig, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := PredictThroughput(sig, 1<<20, 18)
	if err != nil {
		t.Fatal(err)
	}
	if !(one > 0 && many > one) {
		t.Errorf("throughputs: 1t=%v 18t=%v", one, many)
	}
}

func TestTrainDenseFacade(t *testing.T) {
	ds, err := GenerateDense("D8M8", 64, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(Config{
		Signature: "D8M8",
		Threads:   2,
		Epochs:    4,
		StepSize:  0.1,
		Seed:      2,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainLoss[len(res.TrainLoss)-1] >= res.TrainLoss[0]*0.9 {
		t.Errorf("training did not converge: %v", res.TrainLoss)
	}
}

func TestTrainSparseFacade(t *testing.T) {
	ds, err := GenerateSparse("D8i16M8", 512, 1000, 0.03, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(Config{
		Signature: "D8i16M8",
		Epochs:    6,
		StepSize:  0.2,
		Seed:      4,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainLoss[len(res.TrainLoss)-1] >= res.TrainLoss[0]*0.95 {
		t.Errorf("sparse training did not converge: %v", res.TrainLoss)
	}
}

// TestTrainSparseProblems: the sparse engine trains all three problems
// -problem offers, generated or loaded from a LIBSVM file, and reports each
// problem's own loss: hinge and squared start at 1 and 1/2 from the zero
// model, and fall.
func TestTrainSparseProblems(t *testing.T) {
	gen, err := GenerateSparse("D8i16M8", 512, 1000, 0.03, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/train.libsvm"
	var text strings.Builder
	for i, ix := range gen.Idx {
		label := "-1"
		if gen.Y[i] > 0 {
			label = "+1"
		}
		text.WriteString(label)
		for _, k := range sortedOrder(ix) {
			text.WriteString(" " + strconv.Itoa(int(ix[k])+1) + ":" + strconv.FormatFloat(float64(gen.RawVal[i][k]), 'g', -1, 32))
		}
		text.WriteByte('\n')
	}
	if err := osWriteFile(path, text.String()); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLibSVM(path, "D8i16M8")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		problem Problem
		start   float64
	}{{SVM, 1}, {Linear, 0.5}} {
		for name, ds := range map[string]*SparseDataset{"generated": gen, "loaded": loaded} {
			res, err := Train(Config{
				Signature: "D8i16M8",
				Problem:   c.problem,
				Threads:   2,
				Epochs:    4,
				StepSize:  0.05,
				Seed:      4,
			}, ds)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.problem, name, err)
			}
			first, last := res.TrainLoss[0], res.TrainLoss[len(res.TrainLoss)-1]
			if first != c.start || !(last < first) {
				t.Errorf("%s, %s: loss %v, want from %v and falling", c.problem, name, res.TrainLoss, c.start)
			}
		}
	}
}

// sortedOrder returns the positions of ix in ascending index order.
func sortedOrder(ix []int32) []int {
	ord := make([]int, len(ix))
	for k := range ord {
		ord[k] = k
	}
	sort.Slice(ord, func(a, b int) bool { return ix[ord[a]] < ix[ord[b]] })
	return ord
}

func TestFacadeValidation(t *testing.T) {
	dense, _ := GenerateDense("D8M8", 16, 10, 1)
	if _, err := Train(Config{Signature: "D8i8M8"}, dense); err == nil {
		t.Error("sparse signature on dense data should fail")
	}
	if _, err := Train(Config{Signature: "D8M8", Problem: "kmeans"}, dense); err == nil {
		t.Error("unknown problem should fail")
	}
	if _, err := Train(Config{Signature: "D8M8", Rounding: "coin-flip"}, dense); err == nil {
		t.Error("unknown rounding should fail")
	}
	if _, err := GenerateSparse("D8M8", 16, 10, 0.5, 1); err == nil {
		t.Error("dense signature for sparse generation should fail")
	}
	sp, _ := GenerateSparse("D8i16M8", 64, 10, 0.1, 1)
	if _, err := Train(Config{Signature: "D8i32M8"}, sp); err == nil {
		t.Error("index precision mismatch should fail")
	}
	if _, err := Train(Config{Signature: "D12M12"}, dense); err == nil {
		t.Error("unsupported precision should fail")
	}
}

// TestGenerateDenseRejectsSparseSignature: Train refuses a dense set under
// a sparse signature, so the dense constructor refuses to build one, the
// mirror of GenerateSparse refusing a signature without an index term.
func TestGenerateDenseRejectsSparseSignature(t *testing.T) {
	const want = "buckwild: signature D8i16M8 sparsity does not match the dataset"
	ds, err := GenerateDense("D8i16M8", 16, 4, 1)
	if err == nil || err.Error() != want {
		t.Fatalf("GenerateDense(D8i16M8) = %v, %v; want error %q", ds != nil, err, want)
	}
}

func TestRoundingOptions(t *testing.T) {
	ds, err := GenerateDense("D8M8", 32, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Rounding{Biased, UnbiasedMT, UnbiasedXorshift, UnbiasedShared} {
		if _, err := Train(Config{Signature: "D8M8", Rounding: r, Epochs: 1}, ds); err != nil {
			t.Errorf("rounding %q failed: %v", r, err)
		}
	}
}

func TestSimulateThroughputFacade(t *testing.T) {
	r8, err := SimulateThroughput(context.Background(), "D8M8", 1<<16, 1)
	if err != nil {
		t.Fatal(err)
	}
	r32, err := SimulateThroughput(context.Background(), "D32fM32f", 1<<16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r8.GNPS <= r32.GNPS {
		t.Errorf("8-bit (%v) should beat float (%v)", r8.GNPS, r32.GNPS)
	}
	if _, err := SimulateThroughput(context.Background(), "nope", 100, 1); err == nil {
		t.Error("bad signature should fail")
	}
}

func TestFullPrecisionDefaults(t *testing.T) {
	ds, err := GenerateDense("", 32, 300, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(Config{Epochs: 3}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainLoss[len(res.TrainLoss)-1] >= res.TrainLoss[0] {
		t.Error("default full-precision run did not improve")
	}
}

func TestGradientTermInSignature(t *testing.T) {
	ds, err := GenerateDense("D8M8G10", 64, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(Config{Signature: "D8M8G10", Epochs: 4, StepSize: 0.1}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainLoss[len(res.TrainLoss)-1] >= res.TrainLoss[0] {
		t.Error("G10 training did not improve")
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	ds, err := GenerateDense("D8M8", 32, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(Config{Signature: "D8M8", Epochs: 3, StepSize: 0.1}, ds)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.gob"
	if err := SaveModelFile(path, "D8M8", res.W); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Signature != "D8M8" || len(m.Weights) != 32 {
		t.Fatalf("loaded model wrong: %s, %d weights", m.Signature, len(m.Weights))
	}
	for i := range m.Weights {
		if m.Weights[i] != res.W[i] {
			t.Fatal("weights changed in round trip")
		}
	}
	// Predictions agree with direct evaluation.
	h, err := m.Handle()
	if err != nil {
		t.Fatal(err)
	}
	margin, err := h.PredictDense(ds.Raw[0])
	if err != nil {
		t.Fatal(err)
	}
	var want float32
	for j, v := range ds.Raw[0] {
		want += res.W[j] * v
	}
	if margin != want {
		t.Errorf("PredictDense = %v, want %v", margin, want)
	}
	sparseMargin, err := h.PredictSparse([]int32{0, 5}, []float32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sparseMargin != res.W[0]+2*res.W[5] {
		t.Errorf("PredictSparse = %v", sparseMargin)
	}
}

func TestModelIOErrors(t *testing.T) {
	if err := SaveModelFile(t.TempDir()+"/x.gob", "D8M8", nil); err == nil {
		t.Error("empty model should fail")
	}
	if err := SaveModelFile(t.TempDir()+"/x.gob", "bogus", []float32{1}); err == nil {
		t.Error("bad signature should fail")
	}
	if _, err := LoadModelFile("/nonexistent/model.gob"); err == nil {
		t.Error("missing file should fail")
	}
	m, err := (&SavedModel{Signature: "D8M8", Weights: []float32{1, 2}}).Handle()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PredictSparse([]int32{5}, []float32{1}); err == nil {
		t.Error("out-of-range index should fail")
	}
	if _, err := m.PredictSparse([]int32{0, 1}, []float32{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := m.PredictDense([]float32{1}); err == nil {
		t.Error("dim mismatch should fail")
	}
}

func TestLoadLibSVMFacade(t *testing.T) {
	path := t.TempDir() + "/data.libsvm"
	content := "+1 1:0.5 3:0.25\n-1 2:-0.5\n+1 1:0.25 2:0.125 3:-0.25\n"
	if err := osWriteFile(path, content); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadLibSVM(path, "D8i16M8")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 3 || ds.N != 3 {
		t.Fatalf("shape %dx%d", ds.Len(), ds.N)
	}
	if _, err := LoadLibSVM(path, "D8M8"); err == nil {
		t.Error("dense signature should fail")
	}
	if _, err := LoadLibSVM("/nonexistent", "D8i16M8"); err == nil {
		t.Error("missing file should fail")
	}
}

// osWriteFile is a tiny helper to keep the os import localized.
func osWriteFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestTrainSyncFacade(t *testing.T) {
	ds, err := GenerateDense("", 64, 1024, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainSync(SyncConfig{
		CommBits:      1,
		Workers:       4,
		ErrorFeedback: true,
		Epochs:        4,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainLoss[len(res.TrainLoss)-1] >= res.TrainLoss[0]*0.9 {
		t.Errorf("1-bit sync training did not converge: %v", res.TrainLoss)
	}
	if _, err := TrainSync(SyncConfig{CommBits: 0}, ds); err == nil {
		t.Error("zero CommBits should fail")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Signature: "bogus"},
		{Problem: "ridge"},
		{Rounding: "unbiased-quantum"},
		{Threads: -1},
		{MiniBatch: -2},
		{Epochs: -1},
		{StepSize: -0.5},
		{StepDecay: -1},
	}
	for i, cfg := range bad {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("case %d (%+v): Validate accepted a bad config", i, cfg)
			continue
		}
		if !strings.HasPrefix(err.Error(), "buckwild:") {
			t.Errorf("case %d: error %q lacks the buckwild: prefix", i, err)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config should validate: %v", err)
	}
	if err := (Config{Signature: "D8M8", Problem: SVM, Rounding: Biased, Threads: 4}).Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestValidateRoutedThroughEntryPoints(t *testing.T) {
	bad := Config{Problem: "ridge", Epochs: 1}
	ds, err := GenerateDense("", 16, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(bad, ds); err == nil || !strings.HasPrefix(err.Error(), "buckwild:") {
		t.Errorf("dense: %v", err)
	}
	sds, err := GenerateSparse("D8i16M8", 64, 128, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	badSparse := Config{Signature: "D8i16M8", Rounding: "nope", Epochs: 1}
	if _, err := Train(badSparse, sds); err == nil || !strings.HasPrefix(err.Error(), "buckwild:") {
		t.Errorf("sparse: %v", err)
	}
	if _, err := Train(Config{Epochs: 1}, (*DenseDataset)(nil)); err == nil || !strings.HasPrefix(err.Error(), "buckwild:") {
		t.Errorf("nil dataset: %v", err)
	}
	if _, err := Train(Config{Epochs: 1}, &SparseDataset{}); err == nil || !strings.HasPrefix(err.Error(), "buckwild:") {
		t.Errorf("empty sparse dataset: %v", err)
	}
	if _, err := GenerateDense("bogus", 8, 8, 1); err == nil || !strings.HasPrefix(err.Error(), "buckwild:") {
		t.Errorf("GenerateDense bad signature: %v", err)
	}
	if _, err := GenerateDense("", 0, 8, 1); err == nil || !strings.HasPrefix(err.Error(), "buckwild:") {
		t.Errorf("GenerateDense zero n: %v", err)
	}
	if _, err := GenerateSparse("D8i16M8", 8, 8, 0, 1); err == nil || !strings.HasPrefix(err.Error(), "buckwild:") {
		t.Errorf("GenerateSparse zero density: %v", err)
	}
	// Precision mismatches are caught at the facade with its prefix.
	if _, err := Train(Config{Signature: "D16M16", Epochs: 1}, ds); err == nil || !strings.HasPrefix(err.Error(), "buckwild:") {
		t.Errorf("precision mismatch: %v", err)
	}
}

func TestTypedProblemCompat(t *testing.T) {
	// Untyped string literals must still assign to the typed field.
	cfg := Config{Problem: "svm"}
	if cfg.Problem != SVM {
		t.Errorf("literal %q != SVM", cfg.Problem)
	}
	if Problem("").String() != "logistic" {
		t.Errorf("zero problem = %q", Problem("").String())
	}
	for _, p := range []Problem{"", Logistic, Linear, SVM} {
		if !p.Valid() {
			t.Errorf("%q should be valid", p)
		}
	}
	if Problem("ridge").Valid() {
		t.Error("ridge should be invalid")
	}
}

// facadeHooks counts callbacks through the re-exported aliases.
type facadeHooks struct {
	NopHooks
	epochs atomic.Uint64
}

func (h *facadeHooks) OnEpoch(EpochInfo) { h.epochs.Add(1) }

func TestFacadeObservability(t *testing.T) {
	ds, err := GenerateDense("D8M8", 64, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := &facadeHooks{}
	res, err := Train(Config{
		Signature: "D8M8", Threads: 2, Epochs: 2, Seed: 3,
		Hooks: h,
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if h.epochs.Load() != 2 {
		t.Errorf("OnEpoch fired %d times, want 2", h.epochs.Load())
	}
	if res.Stats == nil || res.Stats.Steps != 2*256 {
		t.Errorf("stats = %+v", res.Stats)
	}
	// NopHooks alone still fills Result.Stats.
	res, err = Train(Config{Signature: "D8M8", Epochs: 1, Hooks: NopHooks{}}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.Steps != 256 {
		t.Errorf("NopHooks stats = %+v", res.Stats)
	}
	// And without hooks, training is uninstrumented.
	res, err = Train(Config{Signature: "D8M8", Epochs: 1}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != nil {
		t.Error("Stats should be nil without hooks")
	}
}
