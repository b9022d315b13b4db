// Package dataset generates the synthetic workloads used throughout the
// reproduction. The paper's hardware-efficiency experiments use
// "artificially-generated datasets ... sampled from the generative model for
// logistic regression, using a true model vector w* and example vectors xi
// all sampled uniformly from [-1,1]^n" (Section 4, footnote 9); this package
// implements that model for dense and sparse (3% density) data, plus a
// synthetic 10-class digit task standing in for MNIST in the CNN and kernel
// SVM experiments (the real datasets are not available offline; the
// statistical-efficiency trends under study depend on the optimization
// landscape, not the specific images — see DESIGN.md).
package dataset

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
	"buckwild/internal/prng"
)

// DenseConfig configures a dense logistic-regression dataset.
type DenseConfig struct {
	// N is the model dimension, M the number of examples.
	N, M int
	// P is the dataset precision the examples are quantized to.
	P kernels.Prec
	// Rounding selects how the dataset is quantized (Section 3: the
	// dataset is quantized once, up front).
	Rounding fixed.Rounding
	Seed     uint64
}

// DenseSet is a dense dataset: M examples of dimension N with +-1 labels.
type DenseSet struct {
	N int
	// X holds the quantized examples at the dataset precision.
	X []kernels.Vec
	// Raw holds the original full-precision examples, used by
	// evaluation code so that test metrics are not polluted by dataset
	// quantization.
	Raw [][]float32
	// Y holds the +1/-1 labels.
	Y []float32
	// TrueW is the generating model vector.
	TrueW []float32
}

// stochastic reports whether the rows are rounded stochastically, drawing
// one rounding word per value.
func (c DenseConfig) stochastic() bool {
	return c.Rounding == fixed.Unbiased && c.P != kernels.F32
}

// Len returns the number of examples.
func (d *DenseSet) Len() int { return len(d.X) }

// Dim returns the model dimension.
func (d *DenseSet) Dim() int { return d.N }

// minNumbersPerWorker is the fewest numbers GenDense hands one goroutine.
// Smaller sets use fewer workers: below this a worker's start-up and stream
// jumps are no longer small against the numbers it generates.
const minNumbersPerWorker = 1 << 16

// GenDense samples a dense dataset from the logistic generative model. The
// rows are generated in contiguous blocks on up to GOMAXPROCS goroutines;
// the output is bit-identical whatever the number of goroutines.
func GenDense(cfg DenseConfig) (*DenseSet, error) {
	workers := min(int64(runtime.GOMAXPROCS(0)), int64(cfg.N)*int64(cfg.M)/minNumbersPerWorker)
	return genDense(cfg, int(workers))
}

// genDense is GenDense on min(workers, M) goroutines, at least one. The
// sequential generator draws, for row i, N values and then one label word
// from the row stream, and N rounding words from the rounding stream when
// rows are stochastically rounded to a fixed-point precision. The block starting at row r0 therefore begins with the row
// stream jumped r0*(N+1) draws and the rounding stream jumped r0*N (or zero)
// draws past where the sequential generator would have them at row 0.
func genDense(cfg DenseConfig, workers int) (*DenseSet, error) {
	if cfg.N <= 0 || cfg.M <= 0 {
		return nil, fmt.Errorf("dataset: need positive N and M, got %d, %d", cfg.N, cfg.M)
	}
	g := prng.NewXorshift128(cfg.Seed ^ 0xDA7A5E7)
	// The margin scales the true model so that |<x, w*>| has a useful
	// spread; labels are Bernoulli(sigmoid(margin-scaled dot)).
	margin := 8 / math.Sqrt(float64(cfg.N))
	d := &DenseSet{
		N:     cfg.N,
		X:     make([]kernels.Vec, cfg.M),
		Raw:   make([][]float32, cfg.M),
		Y:     make([]float32, cfg.M),
		TrueW: make([]float32, cfg.N),
	}
	for i := range d.TrueW {
		d.TrueW[i] = uniform(g)
	}
	rs := prng.NewXorshift32(uint32(cfg.Seed) | 1)
	var roundingDraws uint64 // rounding-stream draws per row
	if cfg.stochastic() {
		roundingDraws = uint64(cfg.N)
	}
	workers = max(1, min(workers, cfg.M))
	var wg sync.WaitGroup
	for w := range workers {
		r0, r1 := w*cfg.M/workers, (w+1)*cfg.M/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The streams are copied onto this goroutine's stack: heap
			// copies of two workers' states could share a cache line.
			gw, rw := *g, *rs
			gw.Jump(uint64(r0) * uint64(cfg.N+1))
			rw.Jump(uint64(r0) * roundingDraws)
			d.genRows(cfg, margin, r0, r1, &gw, &rw)
		}()
	}
	wg.Wait()
	return d, nil
}

// genRows fills rows [r0, r1) of d, each into its own pre-sized slot.
func (d *DenseSet) genRows(cfg DenseConfig, margin float64, r0, r1 int, g *prng.Xorshift128, rs *prng.Xorshift32) {
	stochastic := cfg.stochastic()
	for i := r0; i < r1; i++ {
		row := make([]float32, cfg.N)
		var dot float64
		switch {
		case !stochastic:
			dot = drawRow(row, d.TrueW, g)
			d.X[i] = quantizeRow(cfg.P, row, cfg.Rounding, rs) // draws nothing
		case cfg.P == kernels.I16:
			d.X[i] = kernels.NewVec(cfg.P, cfg.N)
			dot = drawRounded(row, d.X[i].I16, d.TrueW, cfg.P.Fixed(), g, rs)
		default:
			d.X[i] = kernels.NewVec(cfg.P, cfg.N)
			dot = drawRounded(row, d.X[i].I8, d.TrueW, cfg.P.Fixed(), g, rs)
		}
		d.Raw[i] = row
		p := 1 / (1 + math.Exp(-dot*margin))
		if float64(prng.Float32(g)) < p {
			d.Y[i] = 1
		} else {
			d.Y[i] = -1
		}
	}
}

// drawRow fills row with U[-1, 1) draws from g and returns its dot product
// with w, summed in order.
func drawRow(row, w []float32, g *prng.Xorshift128) float64 {
	w = w[:len(row)]
	var dot float64
	for j := range row {
		x := uniform(g)
		row[j] = x
		dot += float64(x) * float64(w[j])
	}
	return dot
}

// drawRounded is drawRow that also rounds each value stochastically into
// dst at format f, with a word from rs: the same draws and results as
// drawRow followed by quantizeRow, but in one pass, so that the two
// generators' dependency chains overlap instead of running back to back.
func drawRounded[T int8 | int16](row []float32, dst []T, w []float32, f fixed.Format, g *prng.Xorshift128, rs *prng.Xorshift32) float64 {
	w, dst = w[:len(row)], dst[:len(row)]
	var dot float64
	for j := range row {
		x := uniform(g)
		row[j] = x
		dot += float64(x) * float64(w[j])
		dst[j] = T(f.QuantizeUnbiasedU(x, rs.Uint32()))
	}
	return dot
}

// SparseConfig configures a sparse logistic-regression dataset.
type SparseConfig struct {
	N, M int
	// Density is the fraction of nonzero coordinates per example
	// (the paper uses 3%).
	Density float64
	P       kernels.Prec
	// IdxBits is the stored index precision (8, 16 or 32).
	IdxBits  uint
	Rounding fixed.Rounding
	Seed     uint64
}

// SparseSet is a sparse dataset in coordinate form: for example i, Idx[i]
// lists the nonzero positions and Val[i] their quantized values.
type SparseSet struct {
	N       int
	IdxBits uint
	Idx     [][]int32
	Val     []kernels.Vec
	// RawVal holds the unquantized nonzero values.
	RawVal [][]float32
	Y      []float32
	TrueW  []float32
}

// Len returns the number of examples.
func (d *SparseSet) Len() int { return len(d.Idx) }

// Dim returns the model dimension.
func (d *SparseSet) Dim() int { return d.N }

// NNZ returns the total number of nonzeros across all examples.
func (d *SparseSet) NNZ() int {
	t := 0
	for _, ix := range d.Idx {
		t += len(ix)
	}
	return t
}

// GenSparse samples a sparse dataset: each example draws floor(density*N)
// distinct coordinates (at least one) uniformly and gives them U[-1,1]
// values. Coordinates are rejection-sampled, so an example's draws have no
// fixed count and the set is generated on one goroutine.
func GenSparse(cfg SparseConfig) (*SparseSet, error) {
	if cfg.N <= 0 || cfg.M <= 0 {
		return nil, fmt.Errorf("dataset: need positive N and M, got %d, %d", cfg.N, cfg.M)
	}
	if cfg.Density <= 0 || cfg.Density > 1 {
		return nil, fmt.Errorf("dataset: density %v out of (0, 1]", cfg.Density)
	}
	switch cfg.IdxBits {
	case 8, 16, 32:
	default:
		return nil, fmt.Errorf("dataset: index precision must be 8, 16 or 32 bits")
	}
	nnz := int(cfg.Density * float64(cfg.N))
	if nnz < 1 {
		nnz = 1
	}
	g := prng.NewXorshift128(cfg.Seed ^ 0x5BA25E)
	margin := 8 / math.Sqrt(cfg.Density*float64(cfg.N))
	d := &SparseSet{
		N:       cfg.N,
		IdxBits: cfg.IdxBits,
		Idx:     make([][]int32, cfg.M),
		Val:     make([]kernels.Vec, cfg.M),
		RawVal:  make([][]float32, cfg.M),
		Y:       make([]float32, cfg.M),
		TrueW:   make([]float32, cfg.N),
	}
	for i := range d.TrueW {
		d.TrueW[i] = uniform(g)
	}
	rs := prng.NewXorshift32(uint32(cfg.Seed) | 1)
	// seen[j] == i+1 marks coordinate j as drawn for example i: the same
	// draws and rejections as a per-example set, with nothing to clear.
	seen := make([]int, cfg.N)
	for i := 0; i < cfg.M; i++ {
		idx := make([]int32, 0, nnz)
		for len(idx) < nnz {
			j := int32(g.Uint32() % uint32(cfg.N))
			if seen[j] != i+1 {
				seen[j] = i + 1
				idx = append(idx, j)
			}
		}
		vals := make([]float32, nnz)
		var dot float64
		for k, j := range idx {
			vals[k] = uniform(g)
			dot += float64(vals[k]) * float64(d.TrueW[j])
		}
		d.Idx[i] = idx
		d.RawVal[i] = vals
		d.Val[i] = quantizeRow(cfg.P, vals, cfg.Rounding, rs)
		p := 1 / (1 + math.Exp(-dot*margin))
		if float64(prng.Float32(g)) < p {
			d.Y[i] = 1
		} else {
			d.Y[i] = -1
		}
	}
	return d, nil
}

// uniform returns a sample from U[-1, 1).
func uniform(g *prng.Xorshift128) float32 {
	return prng.Float32(g)*2 - 1
}

// quantizeRow stores row at precision p (F32 passes through). Unbiased
// rounding draws one word from rs per value, in order.
func quantizeRow(p kernels.Prec, row []float32, mode fixed.Rounding, rs *prng.Xorshift32) kernels.Vec {
	v := kernels.NewVec(p, len(row))
	switch p {
	case kernels.F32:
		copy(v.F32, row)
	case kernels.I16:
		quantizeInto(v.I16, row, p.Fixed(), mode, rs)
	default:
		quantizeInto(v.I8, row, p.Fixed(), mode, rs)
	}
	return v
}

// quantizeInto is fixed.Format.Quantize over a row, typed per storage width
// so that neither the rounding nor the draw goes through an interface.
func quantizeInto[T int8 | int16](dst []T, row []float32, f fixed.Format, mode fixed.Rounding, rs *prng.Xorshift32) {
	if mode != fixed.Unbiased {
		for i, x := range row {
			dst[i] = T(f.QuantizeBiased(x))
		}
		return
	}
	for i, x := range row {
		if x == x { // NaN draws nothing and stays zero, as in QuantizeUnbiased
			dst[i] = T(f.QuantizeUnbiasedU(x, rs.Uint32()))
		}
	}
}
