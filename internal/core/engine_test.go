package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
	"buckwild/internal/metrics"
	"buckwild/internal/obs"
)

func sparseData(t *testing.T, n, m int, p kernels.Prec, idxBits uint, seed uint64) *dataset.SparseSet {
	t.Helper()
	ds, err := dataset.GenSparse(dataset.SparseConfig{N: n, M: m, Density: 0.05, P: p, IdxBits: idxBits, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// enginePin is the FNV-64a digest of a seeded run's observable output:
// the bits of Result.W, the bits of Result.TrainLoss, and the JSON form of
// Result.Stats.NumHealth (every field, map keys sorted) from the NumHealth
// rerun.
type enginePin struct{ w, loss, num uint64 }

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// modelDigests digests the bits of res.W and of res.TrainLoss.
func modelDigests(res *Result) (w, loss uint64) {
	var wb, lb []byte
	for _, v := range res.W {
		wb = binary.LittleEndian.AppendUint32(wb, math.Float32bits(v))
	}
	for _, v := range res.TrainLoss {
		lb = binary.LittleEndian.AppendUint64(lb, math.Float64bits(v))
	}
	return fnv64(wb), fnv64(lb)
}

func pinOf(t *testing.T, res, health *Result) enginePin {
	t.Helper()
	if health.Stats == nil || health.Stats.NumHealth == nil {
		t.Fatal("NumHealth run: no Stats.NumHealth")
	}
	num, err := json.Marshal(health.Stats.NumHealth)
	if err != nil {
		t.Fatalf("NumHealth run: marshal error %v", err)
	}
	w, loss := modelDigests(res)
	return enginePin{w, loss, fnv64(num)}
}

// enginePins were captured on the commit before the dense and the sparse
// engine were folded into one, so they are the two old engines' answers,
// bit for bit. Keys are "<signature>/B<MiniBatch>/q<ObstinateQ>".
var enginePins = map[string]enginePin{
	"D8M8/B1/q0":        {0x52805e12d86211cb, 0x48343897900903fb, 0x6d51c529b8a1cb8a},
	"D8M8/B1/q0.5":      {0x64e037c13a053b, 0x4b8202a4691e1d14, 0x9523a86c99961ed2},
	"D8M8/B4/q0":        {0x8b1c0057d0433389, 0xe7f9bc081aa750e1, 0xc7072facd38665ce},
	"D8M8/B4/q0.5":      {0x8b1c0057d0433389, 0xe7f9bc081aa750e1, 0xc7072facd38665ce},
	"D16M16/B1/q0":      {0x5178feaf0c64f71b, 0x9f6da27d6a668972, 0x9b47813230439b54},
	"D16M16/B1/q0.5":    {0xb35fee7c70d37f9d, 0x63fe727d3533f96, 0xed75769eac26dfb4},
	"D16M16/B4/q0":      {0xd2c793383ba53034, 0x2a9bae66ffcfde95, 0x2e420a2e694c3658},
	"D16M16/B4/q0.5":    {0xd2c793383ba53034, 0x2a9bae66ffcfde95, 0x2e420a2e694c3658},
	"D32fM32f/B1/q0":    {0xbe40e9c0624a0b06, 0xa60173bb57b729b4, 0x470cdaedb4337b88},
	"D32fM32f/B1/q0.5":  {0xbe40e9c0624a0b06, 0xa60173bb57b729b4, 0x470cdaedb4337b88},
	"D32fM32f/B4/q0":    {0xbf3f631e3d5dd032, 0x73665d4bdc579a02, 0x501fe2bbd0a5e84a},
	"D32fM32f/B4/q0.5":  {0xbf3f631e3d5dd032, 0x73665d4bdc579a02, 0x501fe2bbd0a5e84a},
	"D8M8G10/B1/q0":     {0x3ac541366be30dd1, 0xd6fd571b2adc4cd1, 0xe94a61aa4572e80d},
	"D8M8G10/B1/q0.5":   {0x9c77134a6c3aa79c, 0xd79549231c35d3d6, 0x5668858a2b74c0a1},
	"D8M8G10/B4/q0":     {0xab0c262759a1d225, 0xc288c7a484d28525, 0x924722d132d7c61d},
	"D8M8G10/B4/q0.5":   {0xab0c262759a1d225, 0xc288c7a484d28525, 0x924722d132d7c61d},
	"D8i16M8/B1/q0":     {0x8f461cb2c1a5f9c7, 0x1e13b22528ee8242, 0x565267ce7df8fbc1},
	"D32fi32M32f/B1/q0": {0x2391b75fd61bd1df, 0xbd6e1a1fa51fabf7, 0x429d87499ea017f3},
}

// TestEnginePinned pins seeded single-thread runs of the shared-memory
// engine across precisions, mini-batching, the obstinate-cache emulation
// and both dataset kinds, with NumHealth off and on. The two runs of a row
// must also agree with each other: counting never changes the arithmetic.
func TestEnginePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pins captured on amd64; other architectures may fuse float multiply-adds in the loss and gradient-scale path")
	}
	type row struct {
		name string
		cfg  Config
		ds   Dataset
	}
	var rows []row
	for _, sig := range []struct {
		name     string
		d, m     kernels.Prec
		gradBits uint
	}{
		{"D8M8", kernels.I8, kernels.I8, 0},
		{"D16M16", kernels.I16, kernels.I16, 0},
		{"D32fM32f", kernels.F32, kernels.F32, 0},
		{"D8M8G10", kernels.I8, kernels.I8, 10},
	} {
		ds := denseData(t, 48, 300, sig.d, 3)
		for _, b := range []int{1, 4} {
			for _, q := range []float64{0, 0.5} {
				cfg := baseCfg(sig.d, sig.m)
				cfg.GradBits, cfg.MiniBatch, cfg.ObstinateQ, cfg.Epochs = sig.gradBits, b, q, 3
				rows = append(rows, row{fmt.Sprintf("%s/B%d/q%v", sig.name, b, q), cfg, ds})
			}
		}
	}
	for _, sig := range []struct {
		name    string
		p       kernels.Prec
		idxBits uint
	}{
		{"D8i16M8", kernels.I8, 16},
		{"D32fi32M32f", kernels.F32, 32},
	} {
		cfg := baseCfg(sig.p, sig.p)
		cfg.StepSize, cfg.Epochs = 0.3, 3
		rows = append(rows, row{sig.name + "/B1/q0", cfg, sparseData(t, 400, 500, sig.p, sig.idxBits, 5)})
	}
	if len(rows) != len(enginePins) {
		t.Errorf("%d rows but %d pins", len(rows), len(enginePins))
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			res, err := Train(r.cfg, r.ds)
			if err != nil {
				t.Fatal(err)
			}
			r.cfg.Observer = &obs.Observer{NumHealth: true}
			health, err := Train(r.cfg, r.ds)
			if err != nil {
				t.Fatal(err)
			}
			got := pinOf(t, res, health)
			if counted := pinOf(t, health, health); counted != got {
				t.Errorf("NumHealth changed the run: %#x vs %#x", counted, got)
			}
			if want := enginePins[r.name]; got != want {
				t.Errorf("got {%#x, %#x, %#x}, want {%#x, %#x, %#x}",
					got.w, got.loss, got.num, want.w, want.loss, want.num)
			}
		})
	}
}

// TestResumeEveryBoundary is the engine-level core of the checkpoint/resume
// determinism story, for both dataset kinds: a run stopped at any epoch
// boundary and resumed from the dequantized weights is bit-identical to the
// uninterrupted run, because the per-(worker, epoch) PRNG streams depend
// only on absolute epoch numbers and the step-decay schedule is replayed.
func TestResumeEveryBoundary(t *testing.T) {
	const epochs = 5
	sparseCfg := ctxTestConfig(epochs)
	sparseCfg.Quant, sparseCfg.QuantPeriod = kernels.QShared, 8
	for _, tc := range []struct {
		name string
		cfg  Config
		ds   Dataset
	}{
		{"dense", ctxTestConfig(epochs), ctxTestSet(t)},
		{"sparse", sparseCfg, sparseData(t, 200, 150, kernels.I8, 16, 6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One uninterrupted run checkpoints every boundary the way the
			// supervisor does: a copy of the dequantized weights.
			boundary := make([][]float32, epochs+1)
			cfg := tc.cfg
			cfg.EpochEnd = func(st EpochState) error {
				boundary[st.Epoch] = st.W.Floats()
				return nil
			}
			full, err := Train(cfg, tc.ds)
			if err != nil {
				t.Fatal(err)
			}
			for split := 1; split < epochs; split++ {
				cfg := tc.cfg
				cfg.StartEpoch, cfg.InitWeights = split, boundary[split]
				res, err := Train(cfg, tc.ds)
				if err != nil {
					t.Fatal(err)
				}
				for i := range full.W {
					if full.W[i] != res.W[i] {
						t.Fatalf("split %d: weight %d diverged after resume: %v vs %v", split, i, full.W[i], res.W[i])
					}
				}
				// The resumed trajectory covers [split, epochs]; its first
				// entry is the resume-point loss.
				if len(res.TrainLoss) != epochs-split+1 {
					t.Fatalf("split %d: resumed trajectory has %d entries, want %d", split, len(res.TrainLoss), epochs-split+1)
				}
				for i, loss := range res.TrainLoss {
					if loss != full.TrainLoss[split+i] {
						t.Fatalf("split %d: loss after epoch %d is %v, uninterrupted %v", split, split+i, loss, full.TrainLoss[split+i])
					}
				}
				if res.Steps != (epochs-split)*tc.ds.Len() {
					t.Fatalf("split %d: Steps = %d, want %d", split, res.Steps, (epochs-split)*tc.ds.Len())
				}
			}
		})
	}
}

// TestResultStepsMatchesCounters checks Result.Steps against the engine's
// own step counters where shards and mini-batches divide raggedly: each
// worker performs ceil(shard / MiniBatch) updates per epoch.
func TestResultStepsMatchesCounters(t *testing.T) {
	dense := baseCfg(kernels.I8, kernels.I8)
	dense.Threads, dense.Sharing, dense.MiniBatch, dense.Epochs = 2, Locked, 4, 2
	sparse := baseCfg(kernels.I8, kernels.I8)
	sparse.Threads, sparse.Sharing, sparse.Epochs = 3, Locked, 2
	for _, tc := range []struct {
		name string
		cfg  Config
		ds   Dataset
		want int
	}{
		// Shards of 5 and 5 examples, two updates each (4 + 1), two epochs.
		{"dense", dense, denseData(t, 8, 10, kernels.I8, 12), 8},
		// Sparse training is MiniBatch = 1: one update per example.
		{"sparse", sparse, sparseData(t, 64, 11, kernels.I8, 16, 1), 22},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Observer = &obs.Observer{}
			res, err := Train(tc.cfg, tc.ds)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(res.Steps) != res.Stats.Steps || res.Steps != tc.want {
				t.Errorf("Result.Steps = %d, Stats.Steps = %d, want %d", res.Steps, res.Stats.Steps, tc.want)
			}
		})
	}
}

// TestObstinateViewIsKindAgnostic: the stale-read emulation lives in the
// shared step, so it applies to sparse runs as it does to dense ones (the
// separate sparse loop used to ignore ObstinateQ).
func TestObstinateViewIsKindAgnostic(t *testing.T) {
	ds := sparseData(t, 200, 400, kernels.I8, 16, 6)
	cfg := baseCfg(kernels.I8, kernels.I8)
	cfg.StepSize = 0.3
	coherent, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ObstinateQ = 0.9
	stale, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	last := len(stale.TrainLoss) - 1
	if stale.TrainLoss[last] == coherent.TrainLoss[last] {
		t.Error("ObstinateQ had no effect on a sparse run")
	}
	if stale.TrainLoss[last] >= stale.TrainLoss[0]*0.9 {
		t.Errorf("sparse training under stale reads did not converge: %v", stale.TrainLoss)
	}
}

// TestElapsedCoversWorkersOnly pins what Result.Elapsed says it is: wall
// time in the epochs' worker fan-outs. A sleeping EpochEnd (a checkpoint
// write, say) must not be in it, nor in NumbersPerSec.
func TestElapsedCoversWorkersOnly(t *testing.T) {
	const nap = 20 * time.Millisecond
	cfg := baseCfg(kernels.I8, kernels.I8)
	cfg.Epochs = 3
	cfg.EpochEnd = func(EpochState) error {
		time.Sleep(nap)
		return nil
	}
	ds := denseData(t, 32, 200, kernels.I8, 3)
	start := time.Now()
	res, err := Train(cfg, ds)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if limit := wall - time.Duration(cfg.Epochs)*nap; res.Elapsed <= 0 || res.Elapsed > limit {
		t.Errorf("Elapsed = %v, want in (0, wall - epochs x sleep = %v]", res.Elapsed, limit)
	}
	if want := float64(cfg.Epochs*200*32) / res.Elapsed.Seconds(); math.Abs(res.NumbersPerSec-want) > 1e-6*want {
		t.Errorf("NumbersPerSec = %v, want numbers / Elapsed = %v", res.NumbersPerSec, want)
	}
}

// TestLossFanOutMatchesSerial: the per-epoch loss a run records does not
// depend on how many goroutines evaluated it — Threads workers under Racy
// and Locked sharing, one under Sequential — bit for bit against the
// serial SyncLoss, for every problem and a row count the workers split
// unevenly. It trains nothing in Racy mode, so it is race-clean.
func TestLossFanOutMatchesSerial(t *testing.T) {
	ds := denseData(t, 24, 61, kernels.I8, 5)
	k, err := kindOf(ds)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float32, ds.N)
	for j := range w {
		w[j] = float32(j%7-3) / 8
	}
	for _, p := range []Problem{Logistic, Linear, SVM} {
		want, err := SyncLoss(p, w, ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 3, 7, 64} {
			cfg := Config{Threads: threads, Sharing: Locked}
			got, err := k.loss(p, w, cfg.workers())
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v threads=%d: loss %v, serial %v", p, threads, got, want)
			}
		}
	}
	if got := (&Config{Threads: 8, Sharing: Sequential}).workers(); got != 1 {
		t.Errorf("Sequential run evaluates the loss on %d goroutines, want 1", got)
	}
}

// TestLossFanOutSparse: the sparse kind evaluates every problem's loss,
// the same bits on any number of goroutines, and its logistic loss keeps
// the bits of the serial loop it once was.
func TestLossFanOutSparse(t *testing.T) {
	ds := sparseData(t, 300, 61, kernels.I8, 16, 5)
	k, err := kindOf(ds)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float32, ds.N)
	for j := range w {
		w[j] = float32(j%7-3) / 8
	}
	var serial float64
	for i, ix := range ds.Idx {
		var d float64
		for kk, j := range ix {
			d += float64(w[j]) * float64(ds.RawVal[i][kk])
		}
		serial += metrics.Logistic(d, float64(ds.Y[i]))
	}
	serial /= float64(ds.Len())
	for _, p := range []Problem{Logistic, Linear, SVM} {
		want, err := k.loss(p, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p == Logistic && math.Float64bits(want) != math.Float64bits(serial) {
			t.Errorf("logistic loss %v, serial loop %v", want, serial)
		}
		for _, threads := range []int{2, 3, 7, 64} {
			cfg := Config{Threads: threads, Sharing: Locked}
			got, err := k.loss(p, w, cfg.workers())
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v threads=%d: loss %v, one goroutine %v", p, threads, got, want)
			}
		}
	}
}
