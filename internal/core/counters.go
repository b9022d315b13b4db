package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
)

// This file holds the engine side of the observability layer: lock-free
// sharded counters that the workers bump without synchronization, plus
// the sampled write–read staleness measurement.
//
// Design constraints, in order:
//
//   - Zero cost when off. Every instrumentation site is guarded by a
//     single nil check on the worker's *runObs; with no Observer in the
//     Config the engine executes the bare algorithm (BenchmarkObsOverhead's
//     baseline row and the repository benchmark's train_nps measure it).
//   - No contention when on. Each worker owns one cache-line-padded
//     shard and writes it with plain stores; the epoch WaitGroup gives
//     the coordinator a happens-before edge to read them, so neither
//     locks nor atomics appear on the per-step path. The only shared
//     atomic is the model-write clock, which the staleness measurement
//     fundamentally needs (it is what "time" means for staleness).
//   - Racy-safe. Shards are indexed by worker id, so even Racy-sharing
//     runs keep their counters exact while the model itself races.

// obsShardSize pads each worker's counters to two cache lines so shards
// of adjacent workers never false-share.
const obsShardSize = 128

// obsShard is one worker's private counter block. Fields are written
// only by the owning worker; the coordinator reads them after wg.Wait.
type obsShard struct {
	steps        uint64
	modelWrites  uint64
	mutexWaits   uint64
	batchFlushes uint64
	sampled      uint64
	_            [obsShardSize - 5*8]byte
}

// numShard is one worker's numerical-health counter block, padded to the
// shard size so adjacent workers never false-share. Same ownership rules
// as obsShard: the owning worker writes with plain stores, the
// coordinator reads after wg.Wait.
type numShard struct {
	c fixed.NumCounts
	_ [(obsShardSize - unsafe.Sizeof(fixed.NumCounts{})%obsShardSize) % obsShardSize]byte
}

// runObs carries one run's observability state across epochs.
type runObs struct {
	hooks  obs.Hooks
	sample uint64
	// tracer records the run's coarse phase spans (nil when tracing is
	// off; all its methods no-op on nil). tid is the trace track the
	// run's spans render on, taken from the bounding context so runs
	// launched by the sweep pool land on their worker's track.
	tracer *obs.Tracer
	tid    int
	// series is the windowed time-series recorder (nil when off).
	series *obs.Series
	// writeKind labels the model-write counter with the run's rounding
	// strategy.
	writeKind string
	// writes is the global model-write clock: every model write by any
	// worker advances it, and the staleness of a sampled step is the
	// clock distance between its model read and its own write, less the
	// write itself.
	writes atomic.Uint64
	shards []obsShard
	stale  obs.Histogram
	// num holds the per-worker numerical-health shards; nil unless the
	// Observer enabled NumHealth (the kernels then count through the
	// shard handed to them by numCounts).
	num []numShard
	// weights is the newest per-epoch weight-distribution pass, written
	// and read only on the coordinating goroutine.
	weights *obs.WeightStats
}

// newRunObs builds the run's observability state, or nil when the config
// installs no Observer (the zero-cost path).
func newRunObs(cfg *Config) *runObs {
	if cfg.Observer == nil {
		return nil
	}
	threads := cfg.Threads
	if cfg.Sharing == Sequential || threads < 1 {
		threads = 1
	}
	kind := "full-precision"
	if cfg.M != kernels.F32 {
		kind = cfg.Quant.String()
	}
	tracer := cfg.Observer.Tracer
	if tracer == nil {
		tracer = obs.TracerFrom(cfg.Ctx)
	}
	ro := &runObs{
		hooks:     cfg.Observer.Hooks,
		sample:    cfg.Observer.SamplePeriod(),
		tracer:    tracer,
		tid:       obs.TraceTID(cfg.Ctx),
		series:    cfg.Observer.Series,
		writeKind: kind,
		shards:    make([]obsShard, threads),
	}
	if cfg.Observer.NumHealth {
		ro.num = make([]numShard, threads)
	}
	return ro
}

// numCounts returns worker w's numerical-health counter block, or nil
// when health collection is off (the kernels' nil fast path).
func (ro *runObs) numCounts(w int) *fixed.NumCounts {
	if ro == nil || ro.num == nil {
		return nil
	}
	return &ro.num[w].c
}

// span opens a trace span for one of the run's coarse phases. A nil
// runObs (or a runObs without a tracer) returns an inert handle.
func (ro *runObs) span(name string) obs.SpanHandle {
	if ro == nil {
		return obs.SpanHandle{}
	}
	return ro.tracer.Begin("core", name, ro.tid)
}

// stepBegin opens one step for worker w: it bumps the step counter and,
// on sampling steps, records the model-write clock at read time. It
// returns the clock and whether this step is sampled.
func (ro *runObs) stepBegin(w int) (readClock uint64, sampled bool) {
	sh := &ro.shards[w]
	sh.steps++
	if sh.steps%ro.sample != 0 {
		return 0, false
	}
	return ro.writes.Load(), true
}

// stepEnd closes one step: wrote reports whether the step updated the
// model (advancing the write clock), grad is the step's AXPY scale (the
// gradient-magnitude proxy the time-series records), and on sampling
// steps the staleness is measured and reported.
func (ro *runObs) stepEnd(w, epoch int, readClock uint64, sampled, wrote bool, grad float32) {
	sh := &ro.shards[w]
	if wrote {
		sh.modelWrites++
		ro.writes.Add(1)
	}
	if !sampled {
		return
	}
	sh.sampled++
	d := ro.writes.Load() - readClock
	if wrote {
		d-- // exclude this step's own write
	}
	ro.stale.Observe(d)
	if ro.series != nil {
		if grad < 0 {
			grad = -grad
		}
		ro.series.ObserveSample(d, float64(grad))
	}
	if ro.hooks != nil {
		ro.hooks.OnStep(obs.StepInfo{Worker: w, Epoch: epoch, Step: sh.steps, Staleness: d})
	}
}

// lock acquires mu for worker w, counting acquisitions that had to wait.
func (ro *runObs) lock(w int, mu *sync.Mutex) {
	if !mu.TryLock() {
		ro.shards[w].mutexWaits++
		mu.Lock()
	}
}

// workerDone reports a worker finishing its epoch range; stepsBefore is
// the worker's cumulative step count when the epoch began.
func (ro *runObs) workerDone(w, epoch int, stepsBefore uint64) {
	if ro.hooks != nil {
		ro.hooks.OnWorker(obs.WorkerInfo{
			Worker: w, Epoch: epoch, Steps: ro.shards[w].steps - stepsBefore,
		})
	}
}

// observeWeights runs the per-epoch weight-distribution pass over the
// model: magnitude histogram in quanta, real-unit extrema and mean, and
// the count of weights pinned at the format bounds. It runs on the
// coordinating goroutine while the workers are joined (the same boundary
// the loss evaluation uses), and only when health collection is on.
func (ro *runObs) observeWeights(epoch int, w kernels.Vec) {
	if ro == nil || ro.num == nil {
		return
	}
	n := w.Len()
	ws := &obs.WeightStats{Epoch: epoch, Count: n}
	ro.weights = ws
	if n == 0 {
		return
	}
	if w.P == kernels.F32 {
		var sum float64
		finite := 0
		for i := 0; i < n; i++ {
			v := float64(w.F32[i])
			if math.IsNaN(v) || math.IsInf(v, 0) {
				ws.NonFinite++
				continue
			}
			if finite == 0 || v < ws.Min {
				ws.Min = v
			}
			if finite == 0 || v > ws.Max {
				ws.Max = v
			}
			sum += v
			finite++
			// Float weights histogram in quanta of 2^-24, the finest
			// fixed grid the engine uses, so fixed and float runs chart
			// on comparable axes.
			q := math.Abs(v) * (1 << 24)
			if q > float64(uint64(1)<<62) {
				q = float64(uint64(1) << 62)
			}
			ws.Magnitude.Observe(uint64(q))
		}
		if finite > 0 {
			ws.Mean = sum / float64(finite)
		}
		return
	}
	f := w.P.Fixed()
	maxRaw, minRaw := f.MaxInt(), f.MinInt()
	minR, maxR := w.Raw(0), w.Raw(0)
	var sumRaw int64
	for i := 0; i < n; i++ {
		r := w.Raw(i)
		if r == maxRaw || r == minRaw {
			ws.AtBounds++
		}
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
		sumRaw += int64(r)
		a := r
		if a < 0 {
			a = -a
		}
		ws.Magnitude.Observe(uint64(a))
	}
	q := float64(f.Quantum())
	ws.Min = float64(minR) * q
	ws.Max = float64(maxR) * q
	ws.Mean = float64(sumRaw) * q / float64(n)
}

// epochDone reports a finished epoch (1-based) and its loss to the hooks
// and the time-series recorder, with the numerical-health counters when
// collected (HealthTick lands before EpochTick so both hit the same
// window; the epoch's OnEpoch carries them as Health).
func (ro *runObs) epochDone(epoch int, loss float64) {
	if ro == nil || (ro.hooks == nil && ro.series == nil && ro.num == nil) {
		return
	}
	var steps, waits, writes uint64
	for i := range ro.shards {
		steps += ro.shards[i].steps
		waits += ro.shards[i].mutexWaits
		writes += ro.shards[i].modelWrites
	}
	var hi *obs.HealthInfo
	if ro.num != nil {
		var health fixed.NumCounts
		for i := range ro.num {
			health.Merge(&ro.num[i].c)
		}
		hi = &obs.HealthInfo{
			ModelWrites:   writes,
			Saturations:   health.SatTotal(),
			Underflows:    health.Underflows,
			BiasSamples:   health.BiasN,
			BiasSumQuanta: health.BiasSumQ,
		}
		if ro.weights != nil {
			hi.WeightsAtBounds = ro.weights.AtBounds
		}
		ro.series.HealthTick(hi.Saturations, hi.Underflows, hi.BiasSamples, hi.BiasSumQuanta)
		if ro.tracer != nil {
			ro.tracer.Instant("core", "num-health", ro.tid, map[string]string{
				"epoch":       fmt.Sprint(epoch),
				"saturations": fmt.Sprint(hi.Saturations),
				"underflows":  fmt.Sprint(hi.Underflows),
				"bias_mean":   fmt.Sprintf("%.6g", hi.BiasMeanQuanta()),
				"at_bounds":   fmt.Sprint(hi.WeightsAtBounds),
			})
		}
	}
	ro.series.EpochTick(epoch, loss, steps, waits)
	if ro.hooks != nil {
		ro.hooks.OnEpoch(obs.EpochInfo{Epoch: epoch, Loss: loss, Steps: steps, Health: hi})
	}
}

// snapshot folds the shards into the exportable run statistics.
func (ro *runObs) snapshot() *obs.RunStats {
	if ro == nil {
		return nil
	}
	s := &obs.RunStats{Staleness: ro.stale.Snapshot()}
	var writes uint64
	for i := range ro.shards {
		sh := &ro.shards[i]
		s.Steps += sh.steps
		writes += sh.modelWrites
		s.MutexWaits += sh.mutexWaits
		s.BatchFlushes += sh.batchFlushes
		s.SampledSteps += sh.sampled
	}
	s.ModelWrites = map[string]uint64{ro.writeKind: writes}
	if ro.num != nil {
		var total fixed.NumCounts
		for i := range ro.num {
			total.Merge(&ro.num[i].c)
		}
		ns := NumStats(&total, ro.writeKind)
		if ro.weights != nil {
			w := *ro.weights
			ns.Weights = &w
		}
		s.NumHealth = ns
	}
	return s
}

// NumStats converts a (merged) counter block into the exportable
// numerical-health snapshot; mode names the rounding discipline the
// counted writes used. It is the one NumCounts-to-NumStats conversion:
// the engines and the cluster tier both export through it.
func NumStats(c *fixed.NumCounts, mode string) *obs.NumStats {
	ns := &obs.NumStats{
		Saturations: c.SatTotal(),
		Underflows:  c.Underflows,
		Bias: obs.RoundingBias{
			Mode:      mode,
			Samples:   c.BiasN,
			SumQuanta: c.BiasSumQ,
		},
	}
	for site := fixed.Site(0); site < fixed.NumSites; site++ {
		if n := c.Sat[site]; n > 0 {
			if ns.SatBySite == nil {
				ns.SatBySite = make(map[string]uint64)
			}
			ns.SatBySite[site.String()] = n
		}
	}
	return ns
}
