package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// This file renders the observability layer's counters in the Prometheus
// text exposition format (text/plain; version=0.0.4), so a live training
// run can be scraped at /metrics. LiveMetrics is the Hooks-based
// collector behind the endpoint: it maintains lock-free gauges from the
// run's callbacks and renders them with a staleness histogram; a
// Surface adds the other sensors' sections around it.

// promWriter accumulates metric lines, remembering which metric names
// have had their TYPE header emitted.
type promWriter struct {
	w     io.Writer
	err   error
	typed map[string]bool
}

func newPromWriter(w io.Writer) *promWriter {
	return &promWriter{w: w, typed: make(map[string]bool)}
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// metric emits one sample, preceded by HELP/TYPE headers on first use.
func (p *promWriter) metric(name, typ, help string, v float64) {
	p.header(name, typ, help)
	p.printf("%s %s\n", name, promFloat(v))
}

func (p *promWriter) header(name, typ, help string) {
	if p.typed[name] {
		return
	}
	p.typed[name] = true
	if help != "" {
		p.printf("# HELP %s %s\n", name, help)
	}
	p.printf("# TYPE %s %s\n", name, typ)
}

// promFloat renders a value the way Prometheus expects (no exponent for
// integral values that fit, +Inf/-Inf/NaN spelled out).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// histogram emits a HistSnapshot as a Prometheus histogram: cumulative
// bucket counts with inclusive le upper bounds (the power-of-two bucket
// [lo, 2lo) becomes le="2lo-1"; the zero bucket le="0").
func (p *promWriter) histogram(name, help string, s HistSnapshot) {
	p.header(name, "histogram", help)
	var cum uint64
	for _, b := range s.Buckets {
		if b.N == 0 {
			continue
		}
		cum += b.N
		le := "0"
		if b.Lo > 0 {
			le = fmt.Sprint(2*b.Lo - 1)
		}
		p.printf("%s_bucket{le=%q} %d\n", name, le, cum)
	}
	p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	p.printf("%s_sum %d\n", name, s.Sum)
	p.printf("%s_count %d\n", name, s.Count)
}

// writeRunStatsProm renders a RunStats snapshot (and optionally a
// SupervisorStats): the finished run's totals behind /metrics.
func writeRunStatsProm(p *promWriter, rs *RunStats, ss *SupervisorStats) {
	if rs != nil {
		p.metric("buckwild_steps_total", "counter", "Model updates performed.", float64(rs.Steps))
		p.metric("buckwild_mutex_waits_total", "counter", "Contended lock acquisitions (Locked sharing).", float64(rs.MutexWaits))
		p.metric("buckwild_batch_flushes_total", "counter", "Mini-batch gradient flushes.", float64(rs.BatchFlushes))
		p.metric("buckwild_sampled_steps_total", "counter", "Steps sampled for staleness and hooks.", float64(rs.SampledSteps))
		if len(rs.ModelWrites) > 0 {
			p.header("buckwild_model_writes_total", "counter", "Model writes by rounding kind.")
			kinds := make([]string, 0, len(rs.ModelWrites))
			for k := range rs.ModelWrites {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			for _, k := range kinds {
				p.printf("buckwild_model_writes_total{rounding=%q} %d\n", k, rs.ModelWrites[k])
			}
		}
		p.histogram("buckwild_staleness", "Sampled write-read staleness (model writes by other workers).", rs.Staleness)
		if ns := rs.NumHealth; ns != nil {
			p.metric("buckwild_num_saturations_total", "counter", "Saturation (clamp) events across all sites.", float64(ns.Saturations))
			if len(ns.SatBySite) > 0 {
				p.header("buckwild_num_site_saturations_total", "counter", "Saturation events by arithmetic site.")
				sites := make([]string, 0, len(ns.SatBySite))
				for s := range ns.SatBySite {
					sites = append(sites, s)
				}
				sort.Strings(sites)
				for _, s := range sites {
					p.printf("buckwild_num_site_saturations_total{site=%q} %d\n", s, ns.SatBySite[s])
				}
			}
			p.metric("buckwild_num_underflows_total", "counter", "Nonzero gradient contributions quantized to zero.", float64(ns.Underflows))
			p.metric("buckwild_rounding_bias_samples_total", "counter", "Quantized writes measured for rounding bias.", float64(ns.Bias.Samples))
			p.metric("buckwild_rounding_bias_mean_quanta", "gauge", "Mean signed rounding error of quantized writes, in quanta.", ns.Bias.MeanQuanta())
			if ws := ns.Weights; ws != nil {
				p.metric("buckwild_weights_at_bounds", "gauge", "Model weights pinned at the format bounds at the last epoch.", float64(ws.AtBounds))
				p.metric("buckwild_weight_min", "gauge", "Smallest model weight at the last epoch.", ws.Min)
				p.metric("buckwild_weight_max", "gauge", "Largest model weight at the last epoch.", ws.Max)
				p.metric("buckwild_weight_mean", "gauge", "Mean model weight at the last epoch.", ws.Mean)
				p.histogram("buckwild_weight_magnitude", "Model weight magnitudes in quanta at the last epoch.", ws.Magnitude)
			}
		}
	}
	if ss != nil {
		p.metric("buckwild_supervisor_attempts_total", "counter", "Training attempts, including the successful one.", float64(ss.Attempts))
		p.metric("buckwild_supervisor_retries_total", "counter", "Attempts retried after recoverable failures.", float64(ss.Retries))
		p.metric("buckwild_supervisor_checkpoints_total", "counter", "Checkpoint files written.", float64(ss.Checkpoints))
		p.metric("buckwild_supervisor_checkpoint_bytes_total", "counter", "Cumulative checkpoint bytes written.", float64(ss.CheckpointBytes))
		p.metric("buckwild_supervisor_resumes_total", "counter", "Attempts resumed from a checkpoint.", float64(ss.Resumes))
		p.metric("buckwild_supervisor_stalls_detected_total", "counter", "Watchdog firings.", float64(ss.StallsDetected))
		p.metric("buckwild_supervisor_final_threads", "gauge", "Worker count of the last attempt.", float64(ss.FinalThreads))
	}
}

// LiveMetrics is a Hooks implementation that keeps
// live, scrape-ready gauges of a running training job. Install it as the
// run's hooks and as a Surface's Live; every callback is lock-free, so it
// adds no contention to the sampled path.
type LiveMetrics struct {
	epochs       atomic.Int64
	steps        atomic.Uint64
	lossBits     atomic.Uint64
	sampledSteps atomic.Uint64
	workersDone  atomic.Uint64
	stale        Histogram

	checkpoints     atomic.Int64
	checkpointBytes atomic.Int64
	retries         atomic.Int64
	resumeEpoch     atomic.Int64

	// Numerical-health gauges, fed by the epochs' Health and
	// Divergence; emitted only once an epoch carried health (healthSeen).
	healthSeen     atomic.Bool
	healthSat      atomic.Uint64
	healthUnder    atomic.Uint64
	healthBiasN    atomic.Uint64
	healthBiasBits atomic.Uint64
	healthAtBounds atomic.Uint64
	diverged       atomic.Bool
	divergedEpoch  atomic.Int64

	// final, when set via SetFinal, adds the finished run's full counter
	// snapshot to subsequent scrapes.
	final atomic.Pointer[finalStats]
}

type finalStats struct {
	run *RunStats
	sup *SupervisorStats
}

// OnEpoch implements Hooks: the epoch's cumulative numerical-health
// counters, when it carries them, become live gauges too.
func (m *LiveMetrics) OnEpoch(ei EpochInfo) {
	m.epochs.Store(int64(ei.Epoch))
	m.steps.Store(ei.Steps)
	m.lossBits.Store(math.Float64bits(ei.Loss))
	if hi := ei.Health; hi != nil {
		m.healthSat.Store(hi.Saturations)
		m.healthUnder.Store(hi.Underflows)
		m.healthBiasN.Store(hi.BiasSamples)
		m.healthBiasBits.Store(math.Float64bits(hi.BiasSumQuanta))
		m.healthAtBounds.Store(hi.WeightsAtBounds)
		m.healthSeen.Store(true)
	}
	if di := ei.Divergence; di != nil {
		m.diverged.Store(true)
		m.divergedEpoch.Store(int64(di.Epoch))
	}
}

// OnStep implements Hooks.
func (m *LiveMetrics) OnStep(si StepInfo) {
	m.sampledSteps.Add(1)
	m.stale.Observe(si.Staleness)
}

// OnWorker implements Hooks.
func (m *LiveMetrics) OnWorker(WorkerInfo) { m.workersDone.Add(1) }

// OnCheckpoint implements Hooks.
func (m *LiveMetrics) OnCheckpoint(ci CheckpointInfo) {
	m.checkpoints.Add(1)
	m.checkpointBytes.Add(ci.Bytes)
}

// OnRetry implements Hooks.
func (m *LiveMetrics) OnRetry(ri RetryInfo) {
	m.retries.Add(1)
	m.resumeEpoch.Store(int64(ri.ResumeEpoch))
}

// SetFinal attaches the finished run's counter snapshots, so scrapes
// after completion also serve the authoritative totals.
func (m *LiveMetrics) SetFinal(run *RunStats, sup *SupervisorStats) {
	m.final.Store(&finalStats{run: run, sup: sup})
}

// writeProm renders the live gauges.
func (m *LiveMetrics) writeProm(p *promWriter) {
	p.metric("buckwild_epochs_completed", "gauge", "Completed training epochs.", float64(m.epochs.Load()))
	p.metric("buckwild_live_steps", "gauge", "Model updates at the last epoch boundary.", float64(m.steps.Load()))
	p.metric("buckwild_train_loss", "gauge", "Training loss after the last epoch.", math.Float64frombits(m.lossBits.Load()))
	p.metric("buckwild_live_sampled_steps_total", "counter", "Sampled steps observed so far.", float64(m.sampledSteps.Load()))
	p.metric("buckwild_workers_finished_total", "counter", "Worker epoch-ranges completed.", float64(m.workersDone.Load()))
	p.metric("buckwild_checkpoints_total", "counter", "Checkpoints written so far.", float64(m.checkpoints.Load()))
	p.metric("buckwild_checkpoint_bytes_total", "counter", "Checkpoint bytes written so far.", float64(m.checkpointBytes.Load()))
	p.metric("buckwild_retries_total", "counter", "Supervisor retries so far.", float64(m.retries.Load()))
	p.metric("buckwild_resume_epoch", "gauge", "Epoch the latest retry resumed from.", float64(m.resumeEpoch.Load()))
	p.histogram("buckwild_live_staleness", "Sampled write-read staleness, live.", m.stale.Snapshot())
	if m.healthSeen.Load() {
		p.metric("buckwild_live_saturations_total", "counter", "Saturation events so far.", float64(m.healthSat.Load()))
		p.metric("buckwild_live_underflows_total", "counter", "Gradient underflows so far.", float64(m.healthUnder.Load()))
		biasMean := 0.0
		if n := m.healthBiasN.Load(); n > 0 {
			biasMean = math.Float64frombits(m.healthBiasBits.Load()) / float64(n)
		}
		p.metric("buckwild_live_rounding_bias_mean_quanta", "gauge", "Mean signed rounding error so far, in quanta.", biasMean)
		p.metric("buckwild_live_weights_at_bounds", "gauge", "Weights pinned at the format bounds at the last epoch.", float64(m.healthAtBounds.Load()))
	}
	divergedVal := 0.0
	if m.diverged.Load() {
		divergedVal = 1
		p.metric("buckwild_diverged_epoch", "gauge", "Epoch at which the health watchdog fired.", float64(m.divergedEpoch.Load()))
	}
	p.metric("buckwild_diverged", "gauge", "1 if the health watchdog detected numerical divergence.", divergedVal)
}
