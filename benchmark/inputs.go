package main

// inputs.go makes every input from the run's seed: datasets, the LibSVM
// file, the simulator's point lists and the request corpus. The program
// under test receives only what is generated here.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"buckwild"
	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
	"buckwild/internal/machine"
	"buckwild/internal/prng"
)

// Seed offsets keep the inputs of one run independent of each other.
const (
	seedTrainData = 0x7A11
	seedCommData  = 0xC033
	seedServeData = 0x5E4E
	seedCorpus    = 0xC0A9
)

// genTrainSparse generates the sparse set, writes it as LibSVM and loads
// it back through the facade reader, so that the training input is what a
// practitioner's file would give. GenerateSparse draws coordinates in
// random order and the reader wants them ascending, so rows are sorted
// first. It returns the loaded set and the file's path.
func genTrainSparse(in trainInput, seed uint64, dir string) (ds *buckwild.SparseDataset, path string, err error) {
	gen, err := buckwild.GenerateSparse(in.Sig, in.N, in.M, in.Density, seed+seedTrainData)
	if err != nil {
		return nil, "", err
	}
	sortRows(gen)
	path = filepath.Join(dir, "train.libsvm")
	f, err := os.Create(path)
	if err != nil {
		return nil, "", err
	}
	if err := dataset.WriteLibSVM(f, gen); err != nil {
		f.Close()
		return nil, "", fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, "", err
	}
	ds, err = buckwild.LoadLibSVM(path, in.Sig)
	if err != nil {
		return nil, "", err
	}
	return ds, path, nil
}

func sortRows(d *buckwild.SparseDataset) {
	for i, ix := range d.Idx {
		rv := d.RawVal[i]
		ord := make([]int, len(ix))
		for k := range ord {
			ord[k] = k
		}
		sort.Slice(ord, func(a, b int) bool { return ix[ord[a]] < ix[ord[b]] })
		nix, nrv := make([]int32, len(ix)), make([]float32, len(ix))
		for k, o := range ord {
			nix[k], nrv[k] = ix[o], rv[o]
		}
		d.Idx[i], d.RawVal[i] = nix, nrv
	}
}

// denseView is the first k examples of ds, sharing its storage: the
// determinism and crash-resume checks run on it so that they stay cheap.
func denseView(ds *buckwild.DenseDataset, k int) *buckwild.DenseDataset {
	k = min(k, ds.Len())
	return &buckwild.DenseDataset{N: ds.N, X: ds.X[:k], Raw: ds.Raw[:k], Y: ds.Y[:k], TrueW: ds.TrueW}
}

func sparseView(ds *buckwild.SparseDataset, k int) *buckwild.SparseDataset {
	k = min(k, ds.Len())
	return &buckwild.SparseDataset{N: ds.N, IdxBits: ds.IdxBits, Idx: ds.Idx[:k], Val: ds.Val[:k],
		RawVal: ds.RawVal[:k], Y: ds.Y[:k], TrueW: ds.TrueW}
}

// simPoint is one simulated layout.
func simPoint(sparse bool, d kernels.Prec, n, threads int, prefetch bool, obstinacy float64, seed uint64) machine.Workload {
	w := machine.Workload{
		Sparse: sparse, D: d, M: d, Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
		ModelSize: n, Density: 0.03, Threads: threads, Prefetch: prefetch, Obstinacy: obstinacy, Seed: seed,
	}
	if sparse {
		w.IdxBits = 32
	}
	return w
}

// simPoints returns the cold list for one repetition seed. The full list
// is the sim_machine workload's: dense/sparse x I8/I16/F32 x three model
// sizes x thread counts x prefetch x obstinacy, sized to about a second of
// host time; the short list (about a fifth of that) is the other workloads'
// background phase.
func simPoints(in simInput, seed uint64) []machine.Workload {
	if in.Tiny {
		return []machine.Workload{
			simPoint(false, kernels.I8, 1<<12, 4, true, 0, seed),
			simPoint(true, kernels.I8, 1<<12, 4, true, 0.5, seed),
			simPoint(false, kernels.F32, 1<<12, 1, false, 0, seed),
		}
	}
	if !in.Full {
		return []machine.Workload{
			simPoint(false, kernels.I8, 1<<20, 4, true, 0, seed),
			simPoint(true, kernels.I8, 1<<17, 18, true, 0.5, seed),
			simPoint(false, kernels.F32, 1<<17, 4, true, 0, seed),
			simPoint(true, kernels.I8, 1<<17, 4, false, 0, seed),
			simPoint(false, kernels.I8, 1<<14, 18, true, 0, seed),
		}
	}
	return []machine.Workload{
		// Longest first, so that the pool's tail is short.
		simPoint(false, kernels.I8, 1<<20, 18, true, 0.5, seed),
		simPoint(true, kernels.I8, 1<<20, 4, true, 0, seed),
		simPoint(false, kernels.F32, 1<<22, 4, true, 0, seed),
		simPoint(true, kernels.I16, 1<<22, 1, false, 0, seed),
		simPoint(false, kernels.I8, 1<<20, 4, true, 0, seed),
		simPoint(false, kernels.I16, 1<<20, 4, false, 0, seed),
		simPoint(true, kernels.F32, 1<<20, 1, true, 0, seed),
		simPoint(true, kernels.I8, 1<<14, 18, true, 0.5, seed),
		simPoint(false, kernels.I8, 1<<14, 18, true, 0, seed),
		simPoint(true, kernels.I8, 1<<14, 4, false, 0, seed),
	}
}

// pairedPoints are the same layouts under another kernel variant or
// rounding strategy: the memory simulation is memoised by layout, so these
// are memCache hits and only the instruction stream is costed again.
func pairedPoints(cold []machine.Workload) []machine.Workload {
	out := make([]machine.Workload, len(cold))
	for i, w := range cold {
		if i%2 == 0 {
			w.Variant = kernels.Generic
		} else {
			w.Quant = kernels.QXorshift
		}
		out[i] = w
	}
	return out
}

// Request classes of the serving corpus.
const (
	classDense = iota
	classSparse
	classBatch
	numClasses
)

const (
	corpusSize  = 256
	sparseNNZ   = 16
	batchSize   = 16
	corpusCycle = 16 // 12 dense singles, 3 sparse singles, 1 dense batch
)

// request is one pre-encoded /predict body with what is needed to check
// its answer against Model.Predict* in process.
type request struct {
	Body  []byte
	Class int
	X     [][]float32 // dense single (len 1) or batch
	Idx   []int32
	Val   []float32
}

func classOf(i int) int {
	switch c := i % corpusCycle; {
	case c < 12:
		return classDense
	case c < 15:
		return classSparse
	}
	return classBatch
}

// genCorpus builds the seeded request corpus for a model of dimension dim.
// Bodies are encoded once, so the replay loop measures the daemon and not
// the client's encoder.
func genCorpus(dim int, seed uint64) ([]request, error) {
	g := prng.NewXorshift128(seed + seedCorpus)
	uniform := func() float32 { return prng.Float32(g)*2 - 1 }
	row := func() []float32 {
		x := make([]float32, dim)
		for j := range x {
			x[j] = uniform()
		}
		return x
	}
	nnz := min(sparseNNZ, dim)
	reqs := make([]request, corpusSize)
	for i := range reqs {
		r := request{Class: classOf(i)}
		var body any
		switch r.Class {
		case classDense:
			r.X = [][]float32{row()}
			body = map[string]any{"x": r.X[0]}
		case classSparse:
			seen := map[int32]bool{}
			for len(r.Idx) < nnz {
				j := int32(g.Uint32() % uint32(dim))
				if !seen[j] {
					seen[j] = true
					r.Idx = append(r.Idx, j)
					r.Val = append(r.Val, uniform())
				}
			}
			body = map[string]any{"indices": r.Idx, "values": r.Val}
		case classBatch:
			for k := 0; k < batchSize; k++ {
				r.X = append(r.X, row())
			}
			body = map[string]any{"batch": r.X}
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		r.Body = b
		reqs[i] = r
	}
	return reqs, nil
}
