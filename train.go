package buckwild

import (
	"fmt"

	"buckwild/internal/cluster"
	"buckwild/internal/core"
	"buckwild/internal/kernels"
)

// Dataset is the input to Train: a dense (*DenseDataset) or sparse
// (*SparseDataset) example set. The interface is intentionally small —
// it exists so both dataset types fit one entry point, not as an
// extension surface; Train accepts exactly those two types.
type Dataset = core.Dataset

// Train runs Buckwild! SGD on a dense or sparse dataset — the one training
// entry point. A dense dataset must be stored at the signature's dataset
// precision (see GenerateDense); a sparse one additionally at its index
// precision (see GenerateSparse, LoadLibSVM).
//
// With Config.Cluster asking for multiple nodes (Nodes >= 2), a dense
// run is routed through the simulated cluster tier instead of the
// shared-memory engine: gradients cross a modeled interconnect at the
// wire precision, and Result.Cluster reports the exact wire bytes.
// Sparse datasets do not support cluster training.
func Train(cfg Config, ds Dataset) (*Result, error) {
	cc, err := cfg.lower(ds)
	if err != nil {
		return nil, err
	}
	if !cfg.Cluster.enabled() {
		res, err := core.Train(cc, ds)
		return res, wrapErr(err)
	}
	dense, ok := ds.(*DenseDataset)
	if !ok {
		return nil, fmt.Errorf("buckwild: cluster training supports dense datasets only")
	}
	ccl, err := cfg.clusterConfig(cc)
	if err != nil {
		return nil, err
	}
	res, err := cluster.Train(ccl, dense)
	return res, wrapErr(err)
}

// lower checks cfg against the dataset it is to train on and lowers it to
// the engine's configuration. Train, RunDense and RunSparse all come
// through here, so a nil or empty dataset, a signature of the wrong
// sparsity or index width, and a dataset stored at another precision than
// the signature's are each rejected in one place with one message.
func (c Config) lower(ds Dataset) (core.Config, error) {
	var (
		sparse  bool
		idxBits uint
		stored  kernels.Prec
		ok      bool
	)
	switch d := ds.(type) {
	case nil:
		return core.Config{}, fmt.Errorf("buckwild: nil dataset")
	case *DenseDataset:
		if d != nil && d.Len() > 0 {
			stored, ok = d.X[0].P, true
		}
	case *SparseDataset:
		if d != nil && d.Len() > 0 {
			sparse, idxBits, stored, ok = true, d.IdxBits, d.Val[0].P, true
		}
	default:
		return core.Config{}, fmt.Errorf("buckwild: unsupported dataset type %T (use *DenseDataset or *SparseDataset)", ds)
	}
	if !ok {
		return core.Config{}, fmt.Errorf("buckwild: empty dataset")
	}
	cc, err := c.coreConfig(sparse, idxBits)
	if err != nil {
		return core.Config{}, err
	}
	if stored != cc.D {
		return core.Config{}, fmt.Errorf("buckwild: dataset stored at %v but signature wants %v", stored, cc.D)
	}
	return cc, nil
}
