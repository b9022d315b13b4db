// Package metrics evaluates trained models and summarizes experiment
// series. Losses are always computed in full precision on the raw
// (unquantized) data, so that statistical-efficiency comparisons between
// precisions measure the quality of the learned model, not the quality of
// the evaluation.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Loss is one example's loss given its inner product w.x and its label y.
type Loss func(dot, y float64) float64

// Logistic is log(1+exp(-y w.x)).
func Logistic(dot, y float64) float64 { return logistic(y * dot) }

// Hinge is max(0, 1 - y w.x).
func Hinge(dot, y float64) float64 {
	if m := 1 - y*dot; m > 0 {
		return m
	}
	return 0
}

// Squared is (w.x - y)^2 / 2.
func Squared(dot, y float64) float64 {
	d := dot - y
	return d * d / 2
}

// misclassified is 1 when sign(w.x) disagrees with the label.
func misclassified(dot, y float64) float64 {
	if (dot >= 0) != (y > 0) {
		return 1
	}
	return 0
}

// Mean returns the average of loss over a dense dataset. Example ranges are
// evaluated on workers goroutines (one, on the caller's, for workers <= 1),
// four rows to a pass over w; each example's inner product is still summed
// in index order and the per-example terms are added in example order, so
// the result does not depend on workers, bit for bit.
func Mean(loss Loss, w []float32, xs [][]float32, ys []float32, workers int) (float64, error) {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0, fmt.Errorf("metrics: dataset has %d examples, %d labels", n, len(ys))
	}
	for i, x := range xs {
		if len(x) != len(w) {
			return 0, fmt.Errorf("metrics: model dim %d, example %d dim %d", len(w), i, len(x))
		}
	}
	terms := make([]float64, n)
	eval := func(lo, hi int) {
		for i := lo; i < hi; i += 4 {
			// A ragged last pass repeats the range's last row.
			r := [4]int{i, min(i+1, hi-1), min(i+2, hi-1), min(i+3, hi-1)}
			d := dot4(w, xs[r[0]], xs[r[1]], xs[r[2]], xs[r[3]])
			for k, j := range r {
				terms[j] = loss(d[k], float64(ys[j]))
			}
		}
	}
	if workers <= 1 {
		eval(0, n)
	} else {
		var wg sync.WaitGroup
		for t := 0; t < workers; t++ {
			lo, hi := t*n/workers, (t+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				eval(lo, hi)
			}()
		}
		wg.Wait()
	}
	var total float64
	for _, v := range terms {
		total += v
	}
	return total / float64(n), nil
}

// dot4 returns w.a, w.b, w.c and w.d from one pass over w: four independent
// accumulators, each summed in index order. The rows are as long as w.
func dot4(w, a, b, c, d []float32) [4]float64 {
	a, b, c, d = a[:len(w)], b[:len(w)], c[:len(w)], d[:len(w)]
	var sa, sb, sc, sd float64
	for i, v := range w {
		sa += float64(v) * float64(a[i])
		sb += float64(v) * float64(b[i])
		sc += float64(v) * float64(c[i])
		sd += float64(v) * float64(d[i])
	}
	return [4]float64{sa, sb, sc, sd}
}

// LogisticLoss returns the average logistic loss (log(1+exp(-y w.x)))
// over the dataset.
func LogisticLoss(w []float32, xs [][]float32, ys []float32) (float64, error) {
	return Mean(Logistic, w, xs, ys, 1)
}

// SparseLogisticLoss is LogisticLoss for coordinate-form examples.
func SparseLogisticLoss(w []float32, idx [][]int32, vals [][]float32, ys []float32) (float64, error) {
	if len(idx) != len(vals) || len(idx) != len(ys) || len(idx) == 0 {
		return 0, fmt.Errorf("metrics: mismatched sparse dataset shapes")
	}
	var total float64
	for i := range idx {
		var d float64
		for k, j := range idx[i] {
			d += float64(w[j]) * float64(vals[i][k])
		}
		total += logistic(float64(ys[i]) * d)
	}
	return total / float64(len(idx)), nil
}

// HingeLoss returns the average hinge loss max(0, 1 - y w.x).
func HingeLoss(w []float32, xs [][]float32, ys []float32) (float64, error) {
	return Mean(Hinge, w, xs, ys, 1)
}

// SquaredLoss returns the average squared error (w.x - y)^2 / 2.
func SquaredLoss(w []float32, xs [][]float32, ys []float32) (float64, error) {
	return Mean(Squared, w, xs, ys, 1)
}

// BinaryError returns the fraction of examples misclassified by
// sign(w.x).
func BinaryError(w []float32, xs [][]float32, ys []float32) (float64, error) {
	return Mean(misclassified, w, xs, ys, 1)
}

// logistic returns log(1 + exp(-m)) computed stably.
func logistic(m float64) float64 {
	if m > 35 {
		return math.Exp(-m)
	}
	if m < -35 {
		return -m
	}
	return math.Log1p(math.Exp(-m))
}

// Summary holds basic statistics of a sample.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	Median         float64
	P10, P90       float64
	First, Last    float64
	MinIdx, MaxIdx int
}

// Summarize computes statistics over xs; it returns an error for an empty
// sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, fmt.Errorf("metrics: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0], First: xs[0], Last: xs[len(xs)-1]}
	var sum float64
	for i, x := range xs {
		sum += x
		if x < s.Min {
			s.Min, s.MinIdx = x, i
		}
		if x > s.Max {
			s.Max, s.MaxIdx = x, i
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	s.Std = math.Sqrt(sq / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 0.5)
	s.P10 = quantile(sorted, 0.1)
	s.P90 = quantile(sorted, 0.9)
	return s, nil
}

// quantile interpolates the q-quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// GeoMean returns the geometric mean of positive values.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("metrics: empty sample")
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("metrics: GeoMean needs positive values, got %v", x)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}
