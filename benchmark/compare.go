package main

// compare.go applies the choosing-metrics guide's section 8 rule to two run
// files, per pairing of end-to-end metric and workload.

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

type verdict string

const (
	verdictBetter     verdict = "better"     // a gain by the section 8 rule
	verdictSame       verdict = "same"       // no worse than the bound
	verdictRegression verdict = "REGRESSION" // worse by more than the bound
	verdictUnresolved verdict = "unresolved" // spread wider than the bound
)

// minPairs is how many pairs a claimed gain needs.
const minPairs = 10

type comparison struct {
	Workload string
	Metric   metricSpec
	A, B     []float64
	// WithinRun is set when a side had a single run and its within-run
	// repetitions stood in for run-to-run values.
	WithinRun           bool
	MedA, Q1A, Q3A      float64
	MedB, Q1B, Q3B      float64
	Pairs, Wins, Losses int
	SpreadA, SpreadB    float64
	Change              float64 // share of A's median; positive is better
	Verdict             verdict
}

// betterThan reports whether x is a better reading of m than y.
func betterThan(m metricSpec, x, y float64) bool {
	if m.Better == lower {
		return x < y
	}
	return x > y
}

// compareValues judges B (the change) against A (the parent).
func compareValues(m metricSpec, a, b []float64) comparison {
	c := comparison{Metric: m, A: a, B: b}
	c.Q1A, c.MedA, c.Q3A = quartiles(a)
	c.Q1B, c.MedB, c.Q3B = quartiles(b)
	c.SpreadA, c.SpreadB = spread(a), spread(b)
	c.Pairs = min(len(a), len(b))
	for i := 0; i < c.Pairs; i++ {
		switch {
		case betterThan(m, b[i], a[i]):
			c.Wins++
		case betterThan(m, a[i], b[i]):
			c.Losses++
		}
	}
	if c.MedA != 0 {
		c.Change = (c.MedB - c.MedA) / math.Abs(c.MedA)
		if m.Better == lower {
			c.Change = -c.Change
		}
	}
	allOf := func(xs, ys []float64, pred func(x, y float64) bool) bool {
		for _, x := range xs {
			for _, y := range ys {
				if !pred(x, y) {
					return false
				}
			}
		}
		return len(xs) > 0 && len(ys) > 0
	}
	everyBBetter := allOf(b, a, func(x, y float64) bool { return betterThan(m, x, y) })
	everyBWorse := allOf(b, a, func(x, y float64) bool { return betterThan(m, y, x) })
	wide := c.SpreadA > m.Bound || c.SpreadB > m.Bound
	gain := c.Pairs >= minPairs && float64(c.Wins) >= 0.9*float64(c.Pairs) &&
		c.Change > 0 && math.Abs(c.MedB-c.MedA) > c.Q3A-c.Q1A
	switch {
	case gain:
		c.Verdict = verdictBetter
	case -c.Change > m.Bound && (!wide || everyBWorse):
		c.Verdict = verdictRegression
	case wide && !everyBBetter:
		c.Verdict = verdictUnresolved
	default:
		c.Verdict = verdictSame
	}
	return c
}

// valuesOf collects, per workload, the values of one end-to-end metric
// over a file's untraced runs: one per run, or the within-run repetitions
// when the file holds a single run of that workload.
func valuesOf(f *runFile, workload, metric string) (vals []float64, withinRun bool) {
	var only *workloadRun
	for i := range f.Runs {
		r := &f.Runs[i]
		if r.Trace || r.Workload != workload {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v.Value)
			only = r
		}
	}
	if len(vals) == 1 && len(only.Samples[metric]) > 1 {
		return only.Samples[metric], true
	}
	return vals, false
}

func compareFiles(a, b *runFile) []comparison {
	var out []comparison
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, wa := valuesOf(a, w.Name, m.Name)
			vb, wb := valuesOf(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := compareValues(m, va, vb)
			c.Workload, c.WithinRun = w.Name, wa || wb
			out = append(out, c)
		}
	}
	return out
}

// printComparison prints one row per pairing and returns how many
// regressions and unresolved pairings there were.
func printComparison(w io.Writer, cs []comparison) (regressions, unresolved int) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tspread A/B\tB wins\tverdict\t")
	for _, c := range cs {
		note := ""
		if c.WithinRun {
			note = " (within-run samples)"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%.0f%%\t%.1f%% / %.1f%%\t%d/%d\t%s%s\t\n",
			c.Workload, c.Metric.Name, c.Metric.Unit, c.MedA, c.Q1A, c.Q3A, c.MedB, c.Q1B, c.Q3B,
			c.Change*100, c.Metric.Bound*100, c.SpreadA*100, c.SpreadB*100, c.Wins, c.Pairs, c.Verdict, note)
		switch c.Verdict {
		case verdictRegression:
			regressions++
		case verdictUnresolved:
			unresolved++
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d pairings: %d regressions, %d unresolved (change is signed so that positive is better; a gain needs >= %d pairs, 9/10 wins and a median shift beyond A's interquartile distance)\n",
		len(cs), regressions, unresolved, minPairs)
	return regressions, unresolved
}
