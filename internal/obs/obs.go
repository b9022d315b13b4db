// Package obs is the run-level observability layer of the reproduction.
// The paper's claims are all measured quantities — steps per second,
// coherence traffic, quantization cost, convergence per epoch — so the
// training engine and the simulated machine both need a way to expose
// what happens between "start" and "done" without slowing down the
// uninstrumented hot paths.
//
// The package provides three pieces:
//
//   - Hooks, the callback surface a run reports through (per epoch,
//     sampled per step, per worker), plus Observer, the configuration
//     that installs it into an engine run;
//   - Histogram and RunStats, the lock-free aggregation types the engine
//     fills (the engine's sharded counters themselves live next to the
//     workers in internal/core; this package owns their snapshot form);
//   - exporters: a JSON report writer and an optional HTTP endpoint
//     serving Prometheus metrics, debug routes and pprof.
//
// Instrumentation is strictly opt-in: an engine run with a nil Observer
// executes exactly the pre-observability code path (a single nil check
// per step), so benchmarks without hooks measure the bare algorithm.
package obs

// EpochInfo describes one finished training epoch.
type EpochInfo struct {
	// Epoch is the number of completed epochs (1-based).
	Epoch int
	// Loss is the full-precision training loss after the epoch.
	Loss float64
	// Steps is the cumulative number of model updates so far.
	Steps uint64
}

// StepInfo describes one sampled model update.
type StepInfo struct {
	// Worker identifies the worker that performed the step.
	Worker int
	// Epoch is the epoch the step belongs to (0-based).
	Epoch int
	// Step is the worker's cumulative step count at the sample.
	Step uint64
	// Staleness counts model writes by other workers that landed
	// between this step's model read and its model write — the
	// write–read staleness that "Taming the Wild" reasons about.
	Staleness uint64
}

// WorkerInfo describes one worker finishing its share of an epoch.
type WorkerInfo struct {
	Worker int
	// Epoch is the finished epoch (0-based).
	Epoch int
	// Steps is the number of model updates the worker performed during
	// this epoch.
	Steps uint64
}

// Hooks receives run-level callbacks from a training run. OnStep and
// OnWorker are called from worker goroutines, concurrently under Racy and
// Locked sharing, so implementations must be safe for concurrent use.
// Embed NopHooks to implement only a subset.
type Hooks interface {
	// OnEpoch fires on the coordinating goroutine after each epoch's
	// loss evaluation.
	OnEpoch(EpochInfo)
	// OnStep fires for one in every Observer.StepSample model updates
	// per worker.
	OnStep(StepInfo)
	// OnWorker fires when a worker finishes its range of an epoch.
	OnWorker(WorkerInfo)
}

// NopHooks implements Hooks with no-ops, for embedding.
type NopHooks struct{}

// OnEpoch implements Hooks.
func (NopHooks) OnEpoch(EpochInfo) {}

// OnStep implements Hooks.
func (NopHooks) OnStep(StepInfo) {}

// OnWorker implements Hooks.
func (NopHooks) OnWorker(WorkerInfo) {}

// DefaultStepSample is the per-worker step sampling period used when
// Observer.StepSample is zero.
const DefaultStepSample = 64

// Observer installs observability into a training run. The zero value
// collects counters and the staleness histogram with default sampling and
// no hooks.
type Observer struct {
	// Hooks receives callbacks; nil collects counters only.
	Hooks Hooks
	// StepSample is the per-worker sampling period for OnStep and the
	// staleness histogram: every StepSample-th step is sampled. Zero
	// selects DefaultStepSample.
	StepSample int
	// Tracer, when non-nil, records trace spans for the run's coarse
	// phases (the whole run, each epoch). Nil is free: no span is opened.
	Tracer *Tracer
	// Series, when non-nil, records the windowed training time-series
	// (loss, throughput, staleness and gradient-magnitude sub-aggregates
	// per window). Nil is free: the sampled path skips it with one check.
	Series *Series
	// NumHealth, when true, collects numerical-health telemetry:
	// saturation events per clamp site, the signed rounding-bias
	// accumulator, underflow counts, and a per-epoch weight-distribution
	// pass (see NumStats). Off is free on the hot paths: the kernels pay
	// one nil check per call.
	NumHealth bool
	// Flight, when non-nil, receives coarse structured events (epoch and
	// round completions, faults, promotions) into the always-on flight
	// recorder for post-mortem dumps. Nil is free.
	Flight *FlightRecorder
	// ClusterLive, when non-nil, receives live per-node counters from a
	// cluster simulation for Prometheus exposition. Nil is free.
	ClusterLive *ClusterMetrics
}

// SamplePeriod returns the effective step sampling period.
func (o *Observer) SamplePeriod() uint64 {
	if o == nil || o.StepSample <= 0 {
		return DefaultStepSample
	}
	return uint64(o.StepSample)
}

// RunStats is the counter snapshot of one finished training run. Its
// fields aggregate the engine's per-worker sharded counters; Merge folds
// several runs together (exporters use this to report a whole sweep).
type RunStats struct {
	// Steps counts model updates (one per mini-batch per worker).
	Steps uint64 `json:"steps"`
	// ModelWrites counts model write operations by rounding kind (the
	// kernels' QuantKind name, or "full-precision" for F32 models). A
	// step that produces a zero gradient scale writes nothing, so this
	// can run below Steps.
	ModelWrites map[string]uint64 `json:"model_writes_by_rounding,omitempty"`
	// MutexWaits counts Locked-sharing lock acquisitions that found the
	// mutex already held (contended steps).
	MutexWaits uint64 `json:"mutex_waits"`
	// BatchFlushes counts mini-batch gradient flushes into the model
	// (only mini-batched dense runs produce these).
	BatchFlushes uint64 `json:"batch_flushes"`
	// SampledSteps is how many steps contributed to Staleness and
	// OnStep.
	SampledSteps uint64 `json:"sampled_steps"`
	// Staleness is the sampled write–read staleness histogram: for each
	// sampled step, the number of model writes by other workers between
	// the step's model read and its own write.
	Staleness HistSnapshot `json:"staleness"`
	// NumHealth is the run's numerical-health snapshot; nil unless the
	// Observer enabled NumHealth collection.
	NumHealth *NumStats `json:"num_health,omitempty"`
}

// Merge folds other into s.
func (s *RunStats) Merge(other *RunStats) {
	if other == nil {
		return
	}
	s.Steps += other.Steps
	s.MutexWaits += other.MutexWaits
	s.BatchFlushes += other.BatchFlushes
	s.SampledSteps += other.SampledSteps
	if len(other.ModelWrites) > 0 && s.ModelWrites == nil {
		s.ModelWrites = make(map[string]uint64, len(other.ModelWrites))
	}
	for k, v := range other.ModelWrites {
		s.ModelWrites[k] += v
	}
	s.Staleness.Merge(other.Staleness)
	if other.NumHealth != nil {
		if s.NumHealth == nil {
			s.NumHealth = &NumStats{}
		}
		s.NumHealth.Merge(other.NumHealth)
	}
}
