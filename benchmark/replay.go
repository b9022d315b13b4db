package main

// replay.go makes the traced run's replay spans: each layer's public
// functions called directly, with the workload's shapes, so that a layer's
// cost is known apart from the phases that use it. Nothing here is an
// end-to-end number.

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"buckwild"
	"buckwild/internal/cache"
	"buckwild/internal/core"
	"buckwild/internal/dataset"
	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
	"buckwild/internal/prng"
	"buckwild/internal/simd"
	"buckwild/internal/trace"
)

// replayMin is how long one replayed call count runs at least.
const replayMin = 20 * time.Millisecond

// sink keeps replayed results alive so that the compiler cannot drop the
// calls.
var sink uint64

// timeCalls grows n until fn(n), which makes n calls, runs for replayMin;
// it records the last run as a span and returns nanoseconds per call.
func (c *runCtx) timeCalls(parent int, layer, name string, fn func(n int)) float64 {
	for n := 64; ; n *= 2 {
		sp := c.rec.begin(parent, layer, "replay:"+name)
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d >= replayMin || n >= 1<<28 {
			sp.endArgs(map[string]string{"calls": fmt.Sprint(n)})
			return float64(d.Nanoseconds()) / float64(n)
		}
	}
}

// countingSink counts the accesses a trace generator reports.
type countingSink struct{ n int }

func (s *countingSink) Record(int, trace.Kind, bool, int, bool) { s.n++ }

func (c *runCtx) replay(in *inputs) error {
	root := c.rec.begin(c.root, "harness", "replay")
	defer root.end()
	p := root.id

	// prng
	batch := prng.NewBatch(c.seed)
	c.setLayer("prng.batch_u64_ns", c.timeCalls(p, "prng", "batch-u64", func(n int) {
		for i := 0; i < n; i++ {
			sink ^= batch.Uint64()
		}
	}))
	shared, err := prng.NewShared(prng.NewXorshift32(uint32(c.seed)|1), 8)
	if err != nil {
		return err
	}
	c.setLayer("prng.shared_u32_ns", c.timeCalls(p, "prng", "shared-u32", func(n int) {
		for i := 0; i < n; i++ {
			sink ^= uint64(shared.Uint32())
		}
	}))

	// fixed
	c.setLayer("fixed.addsat8x8_ns", c.timeCalls(p, "fixed", "addsat8x8", func(n int) {
		a, b := uint64(0x0102030405060708), uint64(0x7f01fe02fd03fc04)
		for i := 0; i < n; i++ {
			a = fixed.AddSat8x8(a, b)
			b += 0x0101010101010101
		}
		sink ^= a
	}))
	rs := prng.NewXorshift32(uint32(c.seed) | 1)
	c.setLayer("fixed.roundraw_ns", c.timeCalls(p, "fixed", "roundraw", func(n int) {
		for i := 0; i < n; i++ {
			sink ^= uint64(fixed.Q8.RoundRaw(int64(i*37-n), 6, fixed.Unbiased, rs))
		}
	}))
	var counts fixed.NumCounts
	c.setLayer("fixed.roundraw_counted_ns", c.timeCalls(p, "fixed", "roundraw-counted", func(n int) {
		for i := 0; i < n; i++ {
			sink ^= uint64(fixed.Q8.RoundRawC(int64(i*37-n), 6, fixed.Unbiased, rs, &counts))
		}
	}))

	dot, axpy, err := c.replayKernels(in, p)
	if err != nil {
		return err
	}
	if c.workerNsPerStep > 0 {
		c.setLayer("kernels.step_share", (dot+axpy)/c.workerNsPerStep)
		c.setLayer("core.step_overhead_ns", c.workerNsPerStep-(dot+axpy))
	}

	if err := c.replayLibSVM(in, p); err != nil {
		return err
	}
	if err := c.replayCore(in, p); err != nil {
		return err
	}
	if err := c.replayModel(in, p); err != nil {
		return err
	}
	if err := c.replaySimulator(p); err != nil {
		return err
	}

	// obs
	tr := obs.NewTracer(1024)
	c.setLayer("obs.tracer_span_ns", c.timeCalls(p, "obs", "tracer-span", func(n int) {
		for i := 0; i < n; i++ {
			tr.Begin("bench", "span", 0).End()
		}
	}))
	fr := obs.NewFlightRecorder(1024)
	c.setLayer("obs.flight_record_ns", c.timeCalls(p, "obs", "flight-record", func(n int) {
		for i := 0; i < n; i++ {
			fr.Record("bench", "event", "replayed", nil)
		}
	}))
	var hist obs.Histogram
	c.setLayer("obs.hist_observe_ns", c.timeCalls(p, "obs", "hist-observe", func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(uint64(i))
		}
	}))

	// run: what the supervised repetitions of this pass did.
	a := &c.runAcc
	c.setLayer("run.checkpoints", float64(a.checkpoints))
	c.setLayer("run.checkpoint_bytes", float64(a.bytes))
	c.setLayer("run.checkpoint_save_ms_p50", median(a.saveMS))
	if a.wallS > 0 {
		c.setLayer("run.stall_share", a.saveS/a.wallS)
	}
	return nil
}

// nowNs is what one time.Now costs: timeSteps takes it off each of the
// two intervals it times per step.
func nowNs() float64 {
	const n = 1 << 16
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink ^= uint64(time.Now().Nanosecond())
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// replayEpochs bounds a kernel replay: the first epochs of the workload's
// schedule, which is where most of a short run's time goes anyway.
const replayEpochs = 2

// timeSteps replays the workload's own SGD single-threaded over rows
// examples for the first replayEpochs epochs of its schedule — dot,
// gradient scale, axpy, exactly as the engine's step — timing the dot and
// the axpy of every step apart. It has to be the real trajectory: an axpy
// whose gradient scale underflows the scalar lane returns at once, so what
// an axpy costs on average depends on how well the model already fits
// (7 to 45 us at n = 4096), and made-up scales time the wrong thing.
func (c *runCtx) timeSteps(parent int, name string, rows int, y []float32, dot func(k int) float32, axpy func(k int, a float32)) (dotNs, axpyNs float64) {
	tin := c.w.Train
	epochs := min(tin.Epochs, replayEpochs)
	overhead := nowNs()
	sp := c.rec.begin(parent, "kernels", "replay:"+name)
	var dotT, axpyT time.Duration
	eta := tin.Step
	for e := 0; e < epochs; e++ {
		for k := 0; k < rows; k++ {
			t0 := time.Now()
			d := dot(k)
			t1 := time.Now()
			if a := core.GradScale(core.Logistic, d, y[k], eta); a != 0 {
				axpy(k, a)
			}
			t2 := time.Now()
			dotT += t1.Sub(t0)
			axpyT += t2.Sub(t1)
		}
		if tin.Decay > 0 {
			eta *= tin.Decay
		}
	}
	steps := float64(epochs * rows)
	sp.endArgs(map[string]string{"calls": fmt.Sprint(epochs * rows)})
	return float64(dotT.Nanoseconds())/steps - overhead, float64(axpyT.Nanoseconds())/steps - overhead
}

// replayKernels replays steps with the dense and with the sparse kernels
// over the workload's own rows and returns the dot and axpy cost of the
// kernels the train phase uses, for kernels.step_share.
func (c *runCtx) replayKernels(in *inputs, p int) (dot, axpy float64, err error) {
	q := kernels.MustQuantizer(kernels.I8, kernels.QShared, 8, c.seed)

	// Dense rows: the training set's when it is dense, else the served
	// model's dataset.
	dense := in.serveData
	if in.trainDense != nil {
		dense = in.trainDense
	}
	n := dense.Dim()
	dk := kernels.MustDense(kernels.I8, kernels.I8, kernels.HandOpt, q)
	w := kernels.NewVec(kernels.I8, n)
	denseStep := func(name string) (float64, float64) {
		w.Zero() // both replays walk the same trajectory from the same start
		return c.timeSteps(p, name, dense.Len(), dense.Y,
			func(k int) float32 { return dk.Dot(dense.X[k], w) },
			func(k int, a float32) { dk.Axpy(a, dense.X[k], w) })
	}
	denseDot, denseAxpy := denseStep("dense-step")
	var num fixed.NumCounts
	dk.Num, q.Num = &num, &num
	_, countedAxpy := denseStep("dense-step-counted")
	dk.Num, q.Num = nil, nil
	c.setLayer("kernels.dot_ns", denseDot)
	c.setLayer("kernels.axpy_ns", denseAxpy)
	c.setLayer("kernels.axpy_counted_ns", countedAxpy)

	// Sparse rows: the training set's when it is sparse, else a small set
	// with the corpus's 16 nonzeros.
	sp := in.trainSparse
	if sp == nil {
		if sp, err = buckwild.GenerateSparse("D8i16M8", 4096, 256, float64(sparseNNZ)/4096, c.seed); err != nil {
			return 0, 0, err
		}
	}
	sk, err := kernels.NewSparse(kernels.I8, kernels.I8, kernels.HandOpt, q, sp.IdxBits)
	if err != nil {
		return 0, 0, err
	}
	sw := kernels.NewVec(kernels.I8, sp.Dim())
	sparseDot, sparseAxpy := c.timeSteps(p, "sparse-step", sp.Len(), sp.Y,
		func(k int) float32 { return sk.Dot(sp.Idx[k], sp.Val[k], sw) },
		func(k int, a float32) { sk.Axpy(a, sp.Idx[k], sp.Val[k], sw) })
	c.setLayer("kernels.sparse_dot_ns", sparseDot)
	c.setLayer("kernels.sparse_axpy_ns", sparseAxpy)
	dot, axpy = denseDot, denseAxpy
	if in.trainSparse != nil {
		dot, axpy = sparseDot, sparseAxpy
	}

	xs, out := make([]float32, 16), make([]int32, 16)
	for i := range xs {
		xs[i] = float32(i-8) / 16
	}
	c.setLayer("kernels.quantize_block_ns_per_elem", c.timeCalls(p, "kernels", "quantize-block", func(calls int) {
		for i := 0; i < calls; i++ {
			q.QuantizeBlock(xs, out)
		}
	})/float64(len(xs)))
	c.setLayer("kernels.stepstream_ns", c.timeCalls(p, "kernels", "stepstream", func(calls int) {
		for i := 0; i < calls; i++ {
			st := dk.StepStream(n)
			sink ^= uint64(st.Instructions())
		}
	}))
	st := dk.StepStream(n)
	hw := simd.Haswell()
	c.setLayer("simd.cycles_ns", c.timeCalls(p, "simd", "cycles", func(calls int) {
		var cyc float64
		for i := 0; i < calls; i++ {
			cyc += st.Cycles(hw)
		}
		sink ^= uint64(cyc)
	}))
	return dot, axpy, nil
}

// replayLibSVM times the LibSVM reader: on the training file when the
// workload has one, else on a small generated set.
func (c *runCtx) replayLibSVM(in *inputs, p int) error {
	var data []byte
	idxBits := uint(16)
	if in.libsvmPath != "" {
		b, err := os.ReadFile(in.libsvmPath)
		if err != nil {
			return err
		}
		data = b
	} else {
		ds, err := buckwild.GenerateSparse("D8i16M8", 4096, 2048, float64(sparseNNZ)/4096, c.seed)
		if err != nil {
			return err
		}
		sortRows(ds)
		var buf bytes.Buffer
		if err := dataset.WriteLibSVM(&buf, ds); err != nil {
			return err
		}
		data = buf.Bytes()
	}
	sp := c.rec.begin(p, "dataset", "replay:read-libsvm")
	t0 := time.Now()
	_, err := dataset.ReadLibSVM(bytes.NewReader(data), dataset.LibSVMConfig{P: kernels.I8, IdxBits: idxBits, Rounding: fixed.Unbiased, Seed: 1})
	d := time.Since(t0)
	sp.end()
	if c.op(err) != nil {
		return err
	}
	c.setLayer("dataset.libsvm_read_mb_per_s", float64(len(data))/1e6/d.Seconds())
	return nil
}

// replayCore makes the core layer's comparisons on a view of the training
// set: one thread against P, Hooks+Tracer+TimeSeries against bare, and the
// precision ladder at the workload's dense shape.
func (c *runCtx) replayCore(in *inputs, p int) error {
	ts := newTrainSet(in).view(checkExamples)
	o := trainOpts{threads: c.trainThreads(), epochs: 2, seed: c.seed}
	rate := func(layer, name string, ts trainSet, o trainOpts) (float64, error) {
		var rates []float64
		for i := 0; i < 2; i++ {
			sp := c.rec.begin(p, layer, "replay:"+name)
			out, err := c.trainOnce(ts, o)
			sp.end()
			if err != nil {
				return 0, err
			}
			rates = append(rates, out.nps(ts.numbers))
		}
		return median(rates), nil
	}
	multi, err := rate("core", "train-P-threads", ts, o)
	if err != nil {
		return err
	}
	single := o
	single.threads = 1
	one, err := rate("core", "train-1-thread", ts, single)
	if err != nil {
		return err
	}
	c.setLayer("core.thread_scaling", multi/one)
	sensors := o
	sensors.sensors = true
	observed, err := rate("obs", "train-with-sensors", ts, sensors)
	if err != nil {
		return err
	}
	c.setLayer("obs.hooks_overhead_ratio", multi/observed)

	n := in.serveData.Dim()
	if in.trainDense != nil {
		n = in.trainDense.Dim()
	}
	for _, sig := range []string{"D16M16", "D32fM32f"} {
		ds, err := buckwild.GenerateDense(sig, n, checkExamples, c.seed+seedTrainData)
		if err != nil {
			return err
		}
		r, err := rate("core", "ladder:"+sig, trainSet{dense: ds, numbers: float64(n)}, trainOpts{sig: sig, threads: c.p, epochs: 2, seed: c.seed})
		if err != nil {
			return err
		}
		c.setLayer("core.nps."+sig, r)
	}
	return nil
}

// replayModel times the facade Model the server was serving.
func (c *runCtx) replayModel(in *inputs, p int) error {
	m, _, _ := in.srv.srv.Current()
	if m == nil {
		return fmt.Errorf("no promoted model to replay")
	}
	var dense, batch *request
	var sparse *request
	for i := range in.corpus {
		r := &in.corpus[i]
		switch {
		case r.Class == classDense && dense == nil:
			dense = r
		case r.Class == classSparse && sparse == nil:
			sparse = r
		case r.Class == classBatch && batch == nil:
			batch = r
		}
	}
	var acc float32
	c.setLayer("model.predict_dense_ns", c.timeCalls(p, "model", "predict-dense", func(n int) {
		for i := 0; i < n; i++ {
			v, _ := m.PredictDense(dense.X[0])
			acc += v
		}
	}))
	c.setLayer("model.predict_sparse_ns", c.timeCalls(p, "model", "predict-sparse", func(n int) {
		for i := 0; i < n; i++ {
			v, _ := m.PredictSparse(sparse.Idx, sparse.Val)
			acc += v
		}
	}))
	out := make([]float32, len(batch.X))
	c.setLayer("model.predict_batch_ns_per_ex", c.timeCalls(p, "model", "predict-batch", func(n int) {
		for i := 0; i < n; i++ {
			m.PredictBatch(batch.X, out)
		}
	})/float64(len(batch.X)))
	sink ^= uint64(acc)

	fm, ok := m.(*buckwild.Model)
	if !ok {
		return fmt.Errorf("served model is a %T, not the facade Model", m)
	}
	weights := fm.Weights()
	var loadErr error
	c.setLayer("model.save_load_ms", c.timeCalls(p, "model", "save-load", func(n int) {
		for i := 0; i < n && loadErr == nil; i++ {
			var buf bytes.Buffer
			if loadErr = buckwild.SaveModel(&buf, fm.Signature(), weights); loadErr != nil {
				return
			}
			var sm *buckwild.SavedModel
			if sm, loadErr = buckwild.LoadModel(&buf); loadErr != nil {
				return
			}
			_, loadErr = sm.Handle()
		}
	})/1e6)
	return c.op(loadErr)
}

// replaySimulator times the simulator's inner layers one at a time.
func (c *runCtx) replaySimulator(p int) error {
	cfg := cache.XeonConfig()
	cfg.Seed = c.seed
	h, err := cache.New(cfg)
	if err != nil {
		return err
	}
	line := uint64(cfg.LineSize)
	c.setLayer("cache.access_ns.seq", c.timeCalls(p, "cache", "access-seq", func(n int) {
		lat := 0
		for i := 0; i < n; i++ {
			lat += h.Access(0, 1<<40+uint64(i)*line, false, false)
		}
		sink ^= uint64(lat)
	}))
	c.setLayer("cache.access_ns.pingpong", c.timeCalls(p, "cache", "access-pingpong", func(n int) {
		lat := 0
		for i := 0; i < n; i++ {
			lat += h.Access(i&1, 0, true, true)
		}
		sink ^= uint64(lat)
	}))
	var cs countingSink
	dcfg := trace.DenseConfig{ModelElems: 1 << 14, DatasetBytesPerElem: 1, ModelBytesPerElem: 1, MiniBatch: 1, Regions: trace.DefaultRegions()}
	var traceErr error
	perStep := c.timeCalls(p, "trace", "dense-step", func(n int) {
		cs.n = 0
		for i := 0; i < n && traceErr == nil; i++ {
			traceErr = trace.Dense(h, &cs, i%cfg.Cores, dcfg, uint64(i)<<14)
		}
		cs.n /= max(n, 1)
	})
	if traceErr != nil {
		return traceErr
	}
	c.setLayer("trace.dense_ns_per_access", perStep/float64(max(cs.n, 1)))
	scfg := trace.SparseConfig{ModelElems: 1 << 14, NNZ: 492, ValueBytesPerElem: 1, IndexBytesPerElem: 4, ModelBytesPerElem: 1, MiniBatch: 1, Regions: trace.DefaultRegions()}
	rng := prng.NewXorshift64(c.seed | 1)
	perStep = c.timeCalls(p, "trace", "sparse-step", func(n int) {
		cs.n = 0
		for i := 0; i < n && traceErr == nil; i++ {
			traceErr = trace.Sparse(h, &cs, i%cfg.Cores, scfg, uint64(i)<<12, rng)
		}
		cs.n /= max(n, 1)
	})
	if traceErr != nil {
		return traceErr
	}
	c.setLayer("trace.sparse_ns_per_access", perStep/float64(max(cs.n, 1)))
	return nil
}
