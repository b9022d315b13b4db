// Package metrics evaluates trained models and summarizes experiment
// series. Losses are always computed in full precision on the raw
// (unquantized) data, so that statistical-efficiency comparisons between
// precisions measure the quality of the learned model, not the quality of
// the evaluation.
package metrics

import (
	"fmt"
	"math"
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

// rows is an example set as Mean reads it: Dense or Sparse.
type rows interface {
	// len returns the number of examples.
	len() int
	// check reports a shape error against a model of dimension n.
	check(n int) error
	// dots writes w.x into dst[i] for each example i in [lo, hi), every
	// inner product summed in index order.
	dots(w []float32, dst []float64, lo, hi int)
}

// Dense is a dense example set: one row per example, as long as the model.
type Dense [][]float32

func (xs Dense) len() int { return len(xs) }

func (xs Dense) check(n int) error {
	for i, x := range xs {
		if len(x) != n {
			return fmt.Errorf("metrics: model dim %d, example %d dim %d", n, i, len(x))
		}
	}
	return nil
}

// dots takes four rows to a pass over w; a ragged last pass repeats the
// range's last row.
func (xs Dense) dots(w []float32, dst []float64, lo, hi int) {
	for i := lo; i < hi; i += 4 {
		r := [4]int{i, min(i+1, hi-1), min(i+2, hi-1), min(i+3, hi-1)}
		d := dot4(w, xs[r[0]], xs[r[1]], xs[r[2]], xs[r[3]])
		for k, j := range r {
			dst[j] = d[k]
		}
	}
}

// Sparse is a coordinate-form example set: example i holds the values
// Val[i] at the 0-based coordinates Idx[i].
type Sparse struct {
	Idx [][]int32
	Val [][]float32
}

func (s Sparse) len() int { return len(s.Idx) }

func (s Sparse) check(int) error {
	if len(s.Val) != len(s.Idx) {
		return fmt.Errorf("metrics: %d index rows, %d value rows", len(s.Idx), len(s.Val))
	}
	for i, ix := range s.Idx {
		if len(ix) != len(s.Val[i]) {
			return fmt.Errorf("metrics: example %d has %d indices, %d values", i, len(ix), len(s.Val[i]))
		}
	}
	return nil
}

func (s Sparse) dots(w []float32, dst []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		vals := s.Val[i]
		var d float64
		for k, j := range s.Idx[i] {
			d += float64(w[j]) * float64(vals[k])
		}
		dst[i] = d
	}
}

// Mean returns the average of loss over a dataset. Example ranges are
// evaluated on workers goroutines (one, on the caller's, for workers <= 1);
// each example's inner product is still summed in index order and the
// per-example terms are added in example order, so the result does not
// depend on workers, bit for bit.
func Mean[R rows](loss Loss, w []float32, xs R, ys []float32, workers int) (float64, error) {
	n := xs.len()
	if n == 0 || n != len(ys) {
		return 0, fmt.Errorf("metrics: dataset has %d examples, %d labels", n, len(ys))
	}
	if err := xs.check(len(w)); err != nil {
		return 0, err
	}
	terms := make([]float64, n)
	eval := func(lo, hi int) {
		xs.dots(w, terms, lo, hi)
		for i := lo; i < hi; i++ {
			terms[i] = loss(terms[i], float64(ys[i]))
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
