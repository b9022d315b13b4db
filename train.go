package buckwild

import (
	"fmt"

	"buckwild/internal/cluster"
	"buckwild/internal/core"
)

// Dataset is the input to Train: a dense (*DenseDataset) or sparse
// (*SparseDataset) example set. The interface is intentionally small —
// it exists so both dataset types fit one entry point, not as an
// extension surface; Train accepts exactly those two types.
type Dataset interface {
	// Len returns the number of examples.
	Len() int
	// Dim returns the model dimension.
	Dim() int
}

var (
	_ Dataset = (*DenseDataset)(nil)
	_ Dataset = (*SparseDataset)(nil)
)

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
	switch d := ds.(type) {
	case *DenseDataset:
		return trainDense(cfg, d)
	case *SparseDataset:
		return trainSparse(cfg, d)
	case nil:
		return nil, fmt.Errorf("buckwild: nil dataset")
	}
	return nil, fmt.Errorf("buckwild: unsupported dataset type %T (use *DenseDataset or *SparseDataset)", ds)
}

func trainDense(cfg Config, ds *DenseDataset) (*Result, error) {
	cc, err := cfg.coreConfig(false, 0)
	if err != nil {
		return nil, err
	}
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("buckwild: empty dataset")
	}
	if ds.X[0].P != cc.D {
		return nil, fmt.Errorf("buckwild: dataset stored at %v but signature wants %v", ds.X[0].P, cc.D)
	}
	if cfg.Cluster.enabled() {
		ccl, err := cfg.clusterConfig(cc)
		if err != nil {
			return nil, err
		}
		res, err := cluster.Train(ccl, ds)
		return res, wrapErr(err)
	}
	res, err := core.TrainDense(cc, ds)
	return res, wrapErr(err)
}

func trainSparse(cfg Config, ds *SparseDataset) (*Result, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("buckwild: empty dataset")
	}
	cc, err := cfg.coreConfig(true, ds.IdxBits)
	if err != nil {
		return nil, err
	}
	if cfg.Cluster.enabled() {
		return nil, fmt.Errorf("buckwild: cluster training supports dense datasets only")
	}
	if ds.Val[0].P != cc.D {
		return nil, fmt.Errorf("buckwild: dataset stored at %v but signature wants %v", ds.Val[0].P, cc.D)
	}
	res, err := core.TrainSparse(cc, ds)
	return res, wrapErr(err)
}
