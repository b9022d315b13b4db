package core

import (
	"fmt"

	"buckwild/internal/dataset"
	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
	"buckwild/internal/metrics"
)

// kind is a dataset as the engine sees it: the few things that differ
// between example layouts. Everything else — the epoch loop, the worker
// fan-out, PRNG keying, observation, locking, cancellation, resume — is
// written once against it.
type kind struct {
	// name suffixes the run's trace span ("train-dense", "train-sparse").
	name string
	len  int
	// stored is the precision the examples are held at.
	stored kernels.Prec
	// numbers is the dataset numbers one epoch processes.
	numbers float64
	// y holds the labels, indexed by example.
	y []float32
	// rows holds the examples as dense vectors for the mini-batch
	// accumulate; a kind that leaves it nil supports MiniBatch = 1 only.
	rows []kernels.Vec
	// loss evaluates the full-precision training loss, on up to workers
	// goroutines; the value does not depend on workers.
	loss func(p Problem, w []float32, workers int) (float64, error)
	// newKernel builds one worker's kernel, writing the model through q
	// and counting into nc (either may be nil).
	newKernel func(cfg *Config, q *kernels.Quantizer, nc *fixed.NumCounts) (kernel, error)
}

// kernel is the two vector halves of the step, over example i.
type kernel interface {
	dot(i int, w *kernels.Vec) float32
	axpy(a float32, i int, w *kernels.Vec)
}

func kindOf(ds Dataset) (*kind, error) {
	switch d := ds.(type) {
	case *dataset.DenseSet:
		if d == nil || d.Len() == 0 {
			break
		}
		return &kind{
			name: "dense", len: d.Len(), stored: d.X[0].P, y: d.Y, rows: d.X,
			numbers: float64(d.Len()) * float64(d.N),
			loss: func(p Problem, w []float32, workers int) (float64, error) {
				return metrics.Mean(p.loss(), w, metrics.Dense(d.Raw), d.Y, workers)
			},
			newKernel: func(cfg *Config, q *kernels.Quantizer, nc *fixed.NumCounts) (kernel, error) {
				k, err := kernels.NewDense(cfg.D, cfg.M, cfg.Variant, q)
				if err != nil {
					return nil, err
				}
				k.Num = nc
				return &denseKernel{k, d.X}, nil
			},
		}, nil
	case *dataset.SparseSet:
		if d == nil || d.Len() == 0 {
			break
		}
		return &kind{
			name: "sparse", len: d.Len(), stored: d.Val[0].P, y: d.Y,
			numbers: float64(d.NNZ()),
			loss: func(p Problem, w []float32, workers int) (float64, error) {
				return metrics.Mean(p.loss(), w, metrics.Sparse{Idx: d.Idx, Val: d.RawVal}, d.Y, workers)
			},
			newKernel: func(cfg *Config, q *kernels.Quantizer, nc *fixed.NumCounts) (kernel, error) {
				k, err := kernels.NewSparse(cfg.D, cfg.M, cfg.Variant, q, d.IdxBits)
				if err != nil {
					return nil, err
				}
				k.Num = nc
				return &sparseKernel{k, d.Idx, d.Val}, nil
			},
		}, nil
	case nil:
	default:
		return nil, fmt.Errorf("core: unsupported dataset type %T", ds)
	}
	return nil, fmt.Errorf("core: empty dataset")
}

type denseKernel struct {
	k *kernels.Dense
	x []kernels.Vec
}

func (d *denseKernel) dot(i int, w *kernels.Vec) float32     { return d.k.Dot(d.x[i], *w) }
func (d *denseKernel) axpy(a float32, i int, w *kernels.Vec) { d.k.Axpy(a, d.x[i], *w) }

type sparseKernel struct {
	k   *kernels.Sparse
	idx [][]int32
	val []kernels.Vec
}

func (s *sparseKernel) dot(i int, w *kernels.Vec) float32 { return s.k.Dot(s.idx[i], s.val[i], *w) }
func (s *sparseKernel) axpy(a float32, i int, w *kernels.Vec) {
	s.k.Axpy(a, s.idx[i], s.val[i], *w)
}
