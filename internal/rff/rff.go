// Package rff implements kernel support vector machines via random Fourier
// features (Rahimi and Recht 2007), "a standard proxy for Gaussian
// kernels", as used in the paper's Section 7 evaluation: ten one-versus-all
// SVM classifiers trained with Buckwild! SGD on the transformed features
// (Figures 7d and 7e).
package rff

import (
	"fmt"
	"math"

	"buckwild/internal/core"
	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
	"buckwild/internal/prng"
)

// Transform is a random Fourier feature map approximating a Gaussian
// kernel of bandwidth Sigma: z(x) = sqrt(2/D) cos(Wx + b).
type Transform struct {
	InDim, D int
	Sigma    float64
	w        [][]float32
	b        []float32
}

// NewTransform samples a feature map with D features over inDim inputs.
func NewTransform(inDim, d int, sigma float64, seed uint64) (*Transform, error) {
	if inDim < 1 || d < 1 {
		return nil, fmt.Errorf("rff: dimensions must be positive")
	}
	if sigma <= 0 {
		return nil, fmt.Errorf("rff: sigma must be positive")
	}
	g := prng.NewXorshift128(seed ^ 0x4FF)
	t := &Transform{InDim: inDim, D: d, Sigma: sigma,
		w: make([][]float32, d), b: make([]float32, d)}
	for j := 0; j < d; j++ {
		row := make([]float32, inDim)
		for i := range row {
			row[i] = float32(gaussian(g) / sigma)
		}
		t.w[j] = row
		t.b[j] = prng.Float32(g) * 2 * math.Pi
	}
	return t, nil
}

// gaussian returns a standard normal sample (Box-Muller).
func gaussian(g prng.Source) float64 {
	u1 := float64(prng.Float32(g))
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	u2 := float64(prng.Float32(g))
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Apply maps one input to its feature vector.
func (t *Transform) Apply(x []float32) ([]float32, error) {
	if len(x) != t.InDim {
		return nil, fmt.Errorf("rff: input dim %d, transform expects %d", len(x), t.InDim)
	}
	out := make([]float32, t.D)
	scale := float32(math.Sqrt(2 / float64(t.D)))
	for j := 0; j < t.D; j++ {
		var dot float64
		for i, xi := range x {
			dot += float64(t.w[j][i]) * float64(xi)
		}
		out[j] = scale * float32(math.Cos(dot+float64(t.b[j])))
	}
	return out, nil
}

// Config configures a one-versus-all kernel SVM run.
type Config struct {
	// Features is D, the number of random Fourier features. The
	// Gaussian kernel's bandwidth is sqrt(W·H), the pixel count's root.
	Features int
	// Train configures the underlying Buckwild! engine; Problem is
	// forced to SVM and D/M select the feature and model precisions.
	Train core.Config
	Seed  uint64
}

// Model is a trained one-versus-all classifier.
type Model struct {
	T *Transform
	// W holds one weight vector per class over the feature space.
	W [][]float32
}

// Result reports training statistics.
type Result struct {
	// TrainLoss is the mean (across classes) hinge loss per epoch.
	TrainLoss []float64
	// TestError is the classification error on the test set.
	TestError float64
}

// Train fits one binary Buckwild! SVM per class on the transformed
// features and evaluates on test.
func Train(cfg Config, train, test *dataset.Digits) (*Model, *Result, error) {
	if cfg.Features < 1 {
		return nil, nil, fmt.Errorf("rff: Features must be positive")
	}
	if train == nil || len(train.Images) == 0 {
		return nil, nil, fmt.Errorf("rff: empty training set")
	}
	t, err := NewTransform(train.W*train.H, cfg.Features, math.Sqrt(float64(train.W*train.H)), cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	feats := make([][]float32, len(train.Images))
	for i, img := range train.Images {
		if feats[i], err = t.Apply(img); err != nil {
			return nil, nil, err
		}
	}

	// Fixed-point training wants features that fill the representable
	// range: raw RFF features have amplitude sqrt(2/D), which would
	// waste most of an 8-bit grid. Scaling all features by a common
	// gain changes every class score by the same factor, so predictions
	// are unaffected.
	gain := float32(0.5 * math.Sqrt(float64(cfg.Features)/2))
	scaled := make([][]float32, len(feats))
	for i, f := range feats {
		row := make([]float32, len(f))
		for j, v := range f {
			row[j] = v * gain
		}
		scaled[i] = row
	}

	ccfg := cfg.Train
	ccfg.Problem = core.SVM
	model := &Model{T: t, W: make([][]float32, train.C)}
	var lossSums []float64
	for c := 0; c < train.C; c++ {
		ds, err := binarySet(scaled, train.Labels, c, ccfg.D, cfg.Seed+uint64(c))
		if err != nil {
			return nil, nil, err
		}
		res, err := core.Train(ccfg, ds)
		if err != nil {
			return nil, nil, err
		}
		model.W[c] = res.W
		if lossSums == nil {
			lossSums = make([]float64, len(res.TrainLoss))
		}
		for e, l := range res.TrainLoss {
			lossSums[e] += l
		}
	}
	for e := range lossSums {
		lossSums[e] /= float64(train.C)
	}
	r := &Result{TrainLoss: lossSums}
	if test != nil && len(test.Images) > 0 {
		if r.TestError, err = errorOn(model, test); err != nil {
			return nil, nil, err
		}
	}
	return model, r, nil
}

// binarySet builds the one-vs-all dense dataset for class c: features
// quantized at precision p with labels +1 for class c, -1 otherwise.
func binarySet(feats [][]float32, labels []int, c int, p kernels.Prec, seed uint64) (*dataset.DenseSet, error) {
	n := len(feats[0])
	ds := &dataset.DenseSet{
		N:   n,
		X:   make([]kernels.Vec, len(feats)),
		Raw: feats,
		Y:   make([]float32, len(feats)),
	}
	var q *kernels.Quantizer
	if p != kernels.F32 {
		var err error
		q, err = kernels.NewQuantizer(p, kernels.QXorshift, 0, seed|1)
		if err != nil {
			return nil, err
		}
	}
	for i, f := range feats {
		v := kernels.NewVec(p, n)
		v.Fill(f, q)
		ds.X[i] = v
		if labels[i] == c {
			ds.Y[i] = 1
		} else {
			ds.Y[i] = -1
		}
	}
	return ds, nil
}

// Predict classifies one raw image.
func (m *Model) Predict(img []float32) (int, error) {
	f, err := m.T.Apply(img)
	if err != nil {
		return 0, err
	}
	best, bestScore := 0, math.Inf(-1)
	for c, w := range m.W {
		var s float64
		for j := range w {
			s += float64(w[j]) * float64(f[j])
		}
		if s > bestScore {
			best, bestScore = c, s
		}
	}
	return best, nil
}

// errorOn returns the classification error of the model on d.
func errorOn(m *Model, d *dataset.Digits) (float64, error) {
	wrong := 0
	for i, img := range d.Images {
		p, err := m.Predict(img)
		if err != nil {
			return 0, err
		}
		if p != d.Labels[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(d.Images)), nil
}
