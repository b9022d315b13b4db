package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method), so
// that spreads computed here match the acceptance driver's. Fewer than two
// values have no spread: all three cut points are the value itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if len(xs) == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 || math.IsNaN(q2) {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// tailLadder are the percentiles a latency report may quote.
var tailLadder = []struct {
	P     float64
	Label string
}{{0.5, "p50"}, {0.9, "p90"}, {0.99, "p99"}, {0.999, "p999"}, {0.9999, "p9999"}}

// pickTail returns the highest ladder percentile that still has at least
// ten of the n samples beyond it (guide section 1); with fewer than twenty
// samples that is the median.
func pickTail(n int) (p float64, label string) {
	p, label = tailLadder[0].P, tailLadder[0].Label
	for _, t := range tailLadder[1:] {
		if float64(n)*(1-t.P) >= 10-1e-6 { // 100 x (1 - 0.9) is a hair under 10 in floating point
			p, label = t.P, t.Label
		}
	}
	return p, label
}

// tailAtMost99 is pickTail capped at p99, the percentile req_p99_us names:
// a window too short to have ten samples beyond p99 reports a lower one.
func tailAtMost99(n int) (p float64, label string) {
	if p, label = pickTail(n); p > 0.99 {
		return 0.99, "p99"
	}
	return p, label
}

// quantileSorted reads the p-quantile off an ascending slice (nearest
// rank below, as cmd/experiments/servload.go does).
func quantileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[int(p*float64(len(s)-1))]
}
