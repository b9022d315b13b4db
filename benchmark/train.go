package main

// train.go is the training phase: repetitions of the facade call (Train,
// or RunSparse/RunDense under the supervisor), plain and with NumHealth,
// then the determinism and crash-resume checks.

import (
	"fmt"
	"math"
	"os"
	"time"

	"buckwild"
)

// trainSet is the phase's dataset, dense or sparse.
type trainSet struct {
	dense  *buckwild.DenseDataset
	sparse *buckwild.SparseDataset
	// numbers is the dataset numbers one step reads: n for dense, the mean
	// nonzero count for sparse.
	numbers float64
}

func newTrainSet(in *inputs) trainSet {
	if in.trainSparse != nil {
		ds := in.trainSparse
		return trainSet{sparse: ds, numbers: float64(ds.NNZ()) / float64(ds.Len())}
	}
	return trainSet{dense: in.trainDense, numbers: float64(in.trainDense.Dim())}
}

func (ts trainSet) view(k int) trainSet {
	if ts.sparse != nil {
		return trainSet{sparse: sparseView(ts.sparse, k), numbers: ts.numbers}
	}
	return trainSet{dense: denseView(ts.dense, k), numbers: ts.numbers}
}

func (ts trainSet) len() int {
	if ts.sparse != nil {
		return ts.sparse.Len()
	}
	return ts.dense.Len()
}

// trainOpts are the per-repetition variations of the workload's config.
type trainOpts struct {
	sig        string // "" = the workload's signature
	threads    int
	epochs     int
	seed       uint64
	health     bool
	supervised bool
	faults     string
	sensors    bool // Hooks + Tracer + TimeSeries installed
}

// trainOutcome is what one repetition yields.
type trainOutcome struct {
	res    *buckwild.Result
	sup    buckwild.SupervisorStats
	wall   time.Duration
	tracer *buckwild.Tracer
}

func (o trainOutcome) nps(numbers float64) float64 {
	return float64(o.res.Steps) * numbers / o.wall.Seconds()
}

// trainOnce makes one facade call. The wall covers the whole call,
// per-epoch loss evaluation and checkpoints included; the checkpoint
// directory is made before and removed after it.
func (c *runCtx) trainOnce(ts trainSet, o trainOpts) (trainOutcome, error) {
	in := c.w.Train
	sig := in.Sig
	if o.sig != "" {
		sig = o.sig
	}
	cfg := buckwild.Config{
		Signature: sig, Threads: o.threads, Epochs: o.epochs,
		StepSize: in.Step, StepDecay: in.Decay, Seed: o.seed, NumHealth: o.health,
	}
	var out trainOutcome
	if o.sensors {
		out.tracer = buckwild.NewTracer(1 << 14)
		cfg.Hooks = buckwild.NopHooks{}
		cfg.Tracer = out.tracer
		cfg.TimeSeries = buckwild.NewSeries(0)
	}
	if !o.supervised {
		var ds buckwild.Dataset = ts.dense
		if ts.sparse != nil {
			ds = ts.sparse
		}
		t0 := time.Now()
		res, err := buckwild.Train(cfg, ds)
		out.wall = time.Since(t0)
		out.res = res
		return out, c.op(err)
	}
	dir, err := os.MkdirTemp(c.workDir, "ckpt-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	rc := buckwild.RunConfig{CheckpointDir: dir, CheckpointEvery: 1, Backoff: time.Millisecond}
	if o.faults != "" {
		if rc.Faults, err = buckwild.ParseFaultPlan(o.faults); err != nil {
			return out, err
		}
	}
	var rep *buckwild.RunReport
	t0 := time.Now()
	if ts.sparse != nil {
		rep, err = buckwild.RunSparse(cfg, rc, ts.sparse)
	} else {
		rep, err = buckwild.RunDense(cfg, rc, ts.dense)
	}
	out.wall = time.Since(t0)
	if c.op(err) != nil {
		return out, err
	}
	out.res, out.sup = rep.Result, rep.Stats
	return out, nil
}

func (c *runCtx) trainThreads() int {
	if c.w.Train.Threads > 0 {
		return c.w.Train.Threads
	}
	return c.p
}

// trainPhase measures train_nps, train_health_nps and final_loss.
type trainPhase struct {
	c *runCtx
	// span is the current round's span, the parent of its repetitions.
	span  openSpan
	ts    trainSet
	base  trainOpts
	plain account
	// health is the NumHealth repetitions' account.
	health   account
	agg      trainAgg
	plainNPS []float64
}

func (c *runCtx) newTrainPhase(in *inputs) (phase, error) {
	p := &trainPhase{c: c, ts: newTrainSet(in)}
	tin := c.w.Train
	p.base = trainOpts{threads: c.trainThreads(), epochs: tin.Epochs, supervised: tin.Supervised, sensors: c.traced()}
	// Warm-up: one epoch pages the dataset in and sizes the runtime's
	// heap before anything is timed.
	warm := p.base
	warm.epochs, warm.seed, warm.sensors = 1, c.seed, false
	_, err := c.trainOnce(p.ts, warm)
	return p, err
}

func (p *trainPhase) round(slice time.Duration, last bool) error {
	c := p.c
	p.span = c.rec.begin(c.root, "harness", "phase:train")
	defer p.span.end()
	// With training beside serving, train_nps comes from the serve phase;
	// this phase then mostly gives the NumHealth rate and the loss.
	plainShare := 6
	if c.w.Serve.Train {
		plainShare = 3
	}
	err := p.plain.spend(slice*time.Duration(plainShare)/10, last, c.minReps(3), 64, func(i int) error {
		o := p.base
		o.seed = c.seed + uint64(i)
		sp := c.rec.begin(p.span.id, "core", "train-rep")
		out, err := c.trainOnce(p.ts, o)
		sp.end()
		if err != nil {
			return err
		}
		p.plainNPS = append(p.plainNPS, out.nps(p.ts.numbers))
		c.sample("final_loss", out.res.TrainLoss[len(out.res.TrainLoss)-1])
		p.agg.add(c, sp.id, out)
		return nil
	})
	if err != nil {
		return err
	}
	return p.health.spend(slice*time.Duration(10-plainShare)/10, last, c.minReps(2), 64, func(i int) error {
		o := p.base
		o.seed, o.health = c.seed+uint64(i), true
		sp := c.rec.begin(p.span.id, "core", "train-rep-health")
		out, err := c.trainOnce(p.ts, o)
		sp.end()
		if err != nil {
			return err
		}
		c.sample("train_health_nps", out.nps(p.ts.numbers))
		return nil
	})
}

func (p *trainPhase) finish() error {
	c := p.c
	c.plainNPS = p.plainNPS
	if !c.w.Serve.Train {
		c.samples["train_nps"] = p.plainNPS
	}
	if c.traced() {
		p.agg.report(c)
	}
	return c.trainChecks(p.ts)
}

// runAcc accumulates what the supervised repetitions of a pass did, for
// the run layer's metrics: the train phase, the crash@step repetition and
// the training beside serving all add to it.
type runAcc struct {
	checkpoints int
	bytes       int64
	saveMS      []float64
	saveS       float64
	wallS       float64
}

// addRun folds one supervised call in; spans are the program's own tracer
// spans of that call, lifted under parent at offset (the harness clock at
// the call's start).
func (c *runCtx) addRun(parent int, offset time.Duration, sup buckwild.SupervisorStats, wall time.Duration, tracer *buckwild.Tracer) {
	a := &c.runAcc
	a.checkpoints += sup.Checkpoints
	a.bytes += sup.CheckpointBytes
	a.wallS += wall.Seconds()
	for _, s := range tracer.Snapshot().Spans {
		if s.Cat == "run" && s.Name == "checkpoint-save" {
			a.saveMS = append(a.saveMS, float64(s.Dur.Nanoseconds())/1e6)
			a.saveS += s.Dur.Seconds()
			c.rec.add(parent, "run", "checkpoint-save", offset+s.Start, s.Dur)
		}
	}
}

// trainAgg folds the traced repetitions into the core layer's metrics.
type trainAgg struct {
	wallS, workerS float64
	steps, writes  uint64
	stats          buckwild.RunStats
}

func (a *trainAgg) add(c *runCtx, parent int, out trainOutcome) {
	if !c.traced() {
		return
	}
	a.wallS += out.wall.Seconds()
	a.workerS += out.res.Elapsed.Seconds()
	a.steps += uint64(out.res.Steps)
	if st := out.res.Stats; st != nil {
		for _, n := range st.ModelWrites {
			a.writes += n
		}
		a.stats.Merge(&buckwild.RunStats{Staleness: st.Staleness})
	}
	// The time the facade call spent inside workers, as a child of the
	// repetition: what is left as the repetition's self time is loss
	// evaluation, checkpoints and run set-up.
	offset := c.rec.now() - out.wall
	c.rec.add(parent, "core", "workers", offset, out.res.Elapsed)
	if c.w.Train.Supervised {
		c.addRun(parent, offset, out.sup, out.wall, out.tracer)
	}
}

func (a *trainAgg) report(c *runCtx) {
	c.setLayer("core.worker_s", a.workerS)
	c.setLayer("core.loss_eval_s", a.wallS-a.workerS)
	if a.steps > 0 {
		c.setLayer("core.write_ratio", float64(a.writes)/float64(a.steps))
		// Workers run in parallel, so one step costs threads x elapsed / steps.
		c.workerNsPerStep = a.workerS * 1e9 * float64(c.trainThreads()) / float64(a.steps)
	}
	c.setLayer("core.staleness_p99", a.stats.Staleness.Quantile(0.99))
}

// checkExamples bounds the determinism and crash-resume checks: they run
// on a view of the first examples so that they cost a fraction of a second.
const checkExamples = 1024

// trainChecks are the training output checks, run on every invocation: a
// seeded single-thread run repeats bit for bit, and a run crashed by an
// injected fault resumes from its checkpoint to the very weights the
// uninterrupted run ends with.
func (c *runCtx) trainChecks(ts trainSet) error {
	sp := c.rec.begin(c.root, "harness", "train-checks")
	defer sp.end()
	view := ts.view(checkExamples)
	o := trainOpts{threads: 1, epochs: 3, seed: c.seed}
	a, err := c.trainOnce(view, o)
	if err != nil {
		return err
	}
	b, err := c.trainOnce(view, o)
	if err != nil {
		return err
	}
	if !sameFloat64s(a.res.TrainLoss, b.res.TrainLoss) {
		c.checkf("train: single-thread seeded rerun gave a different TrainLoss: %v vs %v", a.res.TrainLoss, b.res.TrainLoss)
	}

	// Crash in the middle of the second epoch: after the first checkpoint,
	// so that the retry resumes instead of restarting.
	o.supervised = true
	o.faults = fmt.Sprintf("crash@step=%d", view.len()*3/2)
	o.sensors = c.traced()
	crashed, err := c.trainOnce(view, o)
	if err != nil {
		return err
	}
	if !sameFloat32s(crashed.res.W, a.res.W) {
		c.checkf("train: run resumed after crash@step ended on different weights than the uninterrupted run")
	}
	if crashed.sup.Retries != 1 || crashed.sup.Resumes != 1 {
		c.checkf("train: crash@step repetition made %d retries and %d resumes, want 1 and 1", crashed.sup.Retries, crashed.sup.Resumes)
	}
	if c.traced() {
		c.setLayer("run.retries", float64(crashed.sup.Retries))
		c.addRun(sp.id, c.rec.now()-crashed.wall, crashed.sup, crashed.wall, crashed.tracer)
		for _, s := range crashed.tracer.Snapshot().Spans {
			// The first attempt's resume finds nothing; the retry's is the real one.
			if s.Cat == "run" && s.Name == "resume" && s.Args["found"] == "true" {
				c.setLayer("run.resume_ms", float64(s.Dur.Nanoseconds())/1e6)
			}
		}
	}
	return nil
}

func sameFloat64s(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameFloat32s(a, b []float32) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
