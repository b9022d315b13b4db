package main

// spec.go is the benchmark's table of contents: every metric it can print
// (name, unit, direction, and for end-to-end metrics the regression bound)
// and every workload (its inputs and how the run's seconds are split over
// the four phases). BENCHMARK.json at the repository root repeats the
// end-to-end rows; TestBenchmarkJSONMatchesSpec keeps the two in step.

type direction string

const (
	higher direction = "higher"
	lower  direction = "lower"
)

// metricSpec describes one metric. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before compare calls it
// a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better direction
	Bound  float64
	Layer  string // per-layer metrics: the module the metric belongs to
	Doc    string
}

// endToEnd lists the eleven metrics a user of the system sees. The bounds
// are max(5 %, 3 x IQR/median) over the noisiest workload row, capped at the
// acceptance contract's 25 %; on the shared 2-vCPU box they were measured on
// every metric reaches the cap (README.md, "Noise and bounds").
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Doc: "median of three full set-ups: dataset generation, LibSVM write+load, server start, first promotion, warm-up"},
	{Name: "train_nps", Unit: "numbers/s", Better: higher, Bound: 0.25, Doc: "Result.Steps x numbers per example / wall of the facade call, median over repetitions"},
	{Name: "train_health_nps", Unit: "numbers/s", Better: higher, Bound: 0.25, Doc: "train_nps with Config.NumHealth = true"},
	{Name: "final_loss", Unit: "loss", Better: lower, Bound: 0.25, Doc: "TrainLoss[last] after the fixed epoch budget, median over repetitions"},
	{Name: "sim_accesses_per_s", Unit: "accesses/s", Better: higher, Bound: 0.25, Doc: "simulated memory accesses of the cold points / host wall of the whole point list"},
	{Name: "cluster_msgs_per_s", Unit: "messages/s", Better: higher, Bound: 0.25, Doc: "ClusterStats.Messages / host wall, summed over the cluster runs of a repetition"},
	{Name: "sync_nps", Unit: "numbers/s", Better: higher, Bound: 0.25, Doc: "TrainSync numbers per host second"},
	{Name: "req_per_s", Unit: "req/s", Better: higher, Bound: 0.25, Doc: "200-answered requests per second, closed loop, median of windows"},
	{Name: "req_p50_us", Unit: "us", Better: lower, Bound: 0.25, Doc: "client-side latency, median of per-window medians"},
	{Name: "req_p99_us", Unit: "us", Better: lower, Bound: 0.25, Doc: "client-side latency, median of per-window p99 (the highest percentile with >= 10 samples beyond it when a window is short)"},
	{Name: "req_fail_ratio", Unit: "ratio", Better: lower, Bound: 0.25, Doc: "(non-200 + transport errors + 1) / (attempted + 1); the +1 keeps a clean run off zero, and one real failure doubles it"},
}

// perLayer lists the traced run's metrics, layer by layer. Layers are the
// repository's modules.
var perLayer = []metricSpec{
	{Layer: "prng", Name: "prng.batch_u64_ns", Unit: "ns", Better: lower, Doc: "one prng.Batch.Uint64 draw"},
	{Layer: "prng", Name: "prng.shared_u32_ns", Unit: "ns", Better: lower, Doc: "one prng.Shared.Uint32 draw (period 8)"},

	{Layer: "fixed", Name: "fixed.addsat8x8_ns", Unit: "ns", Better: lower, Doc: "one fixed.AddSat8x8 word"},
	{Layer: "fixed", Name: "fixed.roundraw_ns", Unit: "ns", Better: lower, Doc: "one Format.RoundRaw (unbiased)"},
	{Layer: "fixed", Name: "fixed.roundraw_counted_ns", Unit: "ns", Better: lower, Doc: "one Format.RoundRawC (unbiased, counted)"},

	{Layer: "kernels", Name: "kernels.dot_ns", Unit: "ns", Better: lower, Doc: "one Dense.Dot at the workload's dense shape"},
	{Layer: "kernels", Name: "kernels.axpy_ns", Unit: "ns", Better: lower, Doc: "one Dense.Axpy at the workload's dense shape"},
	{Layer: "kernels", Name: "kernels.axpy_counted_ns", Unit: "ns", Better: lower, Doc: "Dense.Axpy with NumCounts installed"},
	{Layer: "kernels", Name: "kernels.step_share", Unit: "ratio", Better: higher, Doc: "steps x replayed (dot+axpy) / worker time of the train phase"},
	{Layer: "kernels", Name: "kernels.sparse_dot_ns", Unit: "ns", Better: lower, Doc: "one Sparse.Dot at the workload's nnz"},
	{Layer: "kernels", Name: "kernels.sparse_axpy_ns", Unit: "ns", Better: lower, Doc: "one Sparse.Axpy at the workload's nnz"},
	{Layer: "kernels", Name: "kernels.quantize_block_ns_per_elem", Unit: "ns", Better: lower, Doc: "Quantizer.QuantizeBlock per element (the wire quantiser's inner loop)"},

	{Layer: "dataset", Name: "dataset.gen_dense_s", Unit: "s", Better: lower, Doc: "dense dataset generation inside set-up"},
	{Layer: "dataset", Name: "dataset.libsvm_read_mb_per_s", Unit: "MB/s", Better: higher, Doc: "LibSVM parse throughput"},

	{Layer: "core", Name: "core.worker_s", Unit: "s", Better: lower, Doc: "sum of Result.Elapsed over the timed train repetitions"},
	{Layer: "core", Name: "core.loss_eval_s", Unit: "s", Better: lower, Doc: "facade wall minus Result.Elapsed: per-epoch loss evaluation and run set-up"},
	{Layer: "core", Name: "core.step_overhead_ns", Unit: "ns", Better: lower, Doc: "worker ns per step minus replayed kernel ns per step"},
	{Layer: "core", Name: "core.write_ratio", Unit: "ratio", Better: higher, Doc: "model writes / steps"},
	{Layer: "core", Name: "core.thread_scaling", Unit: "ratio", Better: higher, Doc: "train_nps at P threads / at 1 thread"},
	{Layer: "core", Name: "core.staleness_p99", Unit: "writes", Better: lower, Doc: "sampled write-read staleness, p99"},
	{Layer: "core", Name: "core.nps.D16M16", Unit: "numbers/s", Better: higher, Doc: "precision ladder at the workload's dense shape"},
	{Layer: "core", Name: "core.nps.D32fM32f", Unit: "numbers/s", Better: higher, Doc: "precision ladder at the workload's dense shape"},
	{Layer: "core", Name: "core.health_ratio", Unit: "ratio", Better: higher, Doc: "train_health_nps / train_nps"},
	{Layer: "core", Name: "core.sync_round_us", Unit: "us", Better: lower, Doc: "TrainSync host time per communication round"},

	{Layer: "run", Name: "run.checkpoints", Unit: "count", Better: lower, Doc: "checkpoint files written by the supervised repetitions"},
	{Layer: "run", Name: "run.checkpoint_bytes", Unit: "bytes", Better: lower, Doc: "their cumulative size"},
	{Layer: "run", Name: "run.checkpoint_save_ms_p50", Unit: "ms", Better: lower, Doc: "run/checkpoint-save span, median"},
	{Layer: "run", Name: "run.stall_share", Unit: "ratio", Better: lower, Doc: "checkpoint-save time / wall of the supervised repetitions"},
	{Layer: "run", Name: "run.resume_ms", Unit: "ms", Better: lower, Doc: "run/resume span of the crash@step repetition"},
	{Layer: "run", Name: "run.retries", Unit: "count", Better: lower, Doc: "retries of the crash@step repetition (expected 1)"},

	{Layer: "cluster", Name: "cluster.host_ns_per_msg.ps", Unit: "ns", Better: lower, Doc: "host time per simulated message, parameter server"},
	{Layer: "cluster", Name: "cluster.host_ns_per_msg.allreduce", Unit: "ns", Better: lower, Doc: "host time per simulated message, all-reduce"},
	{Layer: "cluster", Name: "cluster.wire_bytes", Unit: "bytes", Better: lower, Doc: "WireBytes of one repetition's cluster runs (must not move)"},
	{Layer: "cluster", Name: "cluster.grad_bytes", Unit: "bytes", Better: lower, Doc: "GradBytes of one repetition's cluster runs (must not move)"},
	{Layer: "cluster", Name: "cluster.sim_seconds", Unit: "s", Better: lower, Doc: "simulated seconds of one repetition's cluster runs (must not move)"},
	{Layer: "cluster", Name: "cluster.overlap_saved_s", Unit: "s", Better: higher, Doc: "simulated time the pipelined all-reduce hid"},
	{Layer: "cluster", Name: "cluster.staleness_p99", Unit: "updates", Better: lower, Doc: "parameter-server update staleness, p99"},
	{Layer: "cluster", Name: "cluster.c8_c32_bytes_ratio", Unit: "ratio", Better: lower, Doc: "gradient bytes per push at 8 wire bits / at 32"},

	{Layer: "serve", Name: "serve.handler_us_p50", Unit: "us", Better: lower, Doc: "in-process Handler().ServeHTTP, no socket"},
	{Layer: "serve", Name: "serve.handler_us_p99", Unit: "us", Better: lower, Doc: "in-process Handler().ServeHTTP, no socket"},
	{Layer: "serve", Name: "serve.server_us_p50", Unit: "us", Better: lower, Doc: "ServeStats.LatencyUS"},
	{Layer: "serve", Name: "serve.server_us_p99", Unit: "us", Better: lower, Doc: "ServeStats.LatencyUS"},
	{Layer: "serve", Name: "serve.queue_wait_us_p50", Unit: "us", Better: lower, Doc: "serve/queue-wait tracer spans"},
	{Layer: "serve", Name: "serve.queue_wait_us_p99", Unit: "us", Better: lower, Doc: "serve/queue-wait tracer spans"},
	{Layer: "serve", Name: "serve.predict_us_p50", Unit: "us", Better: lower, Doc: "serve/predict tracer spans"},
	{Layer: "serve", Name: "serve.batch_size_mean", Unit: "examples", Better: higher, Doc: "ServeStats.BatchSize mean"},
	{Layer: "serve", Name: "serve.codec_us_p50", Unit: "us", Better: lower, Doc: "handler p50 - queue-wait p50 - predict p50: JSON decode/encode and admission"},
	{Layer: "serve", Name: "serve.net_gap_us_p50", Unit: "us", Better: lower, Doc: "client p50 - server-side p50"},
	{Layer: "serve", Name: "serve.net_gap_us_p99", Unit: "us", Better: lower, Doc: "client p99 - server-side p99"},
	{Layer: "serve", Name: "serve.dense_p99_us", Unit: "us", Better: lower, Doc: "client p99 of dense single requests"},
	{Layer: "serve", Name: "serve.sparse_p99_us", Unit: "us", Better: lower, Doc: "client p99 of sparse single requests"},
	{Layer: "serve", Name: "serve.batch_p99_us", Unit: "us", Better: lower, Doc: "client p99 of dense batch requests"},
	{Layer: "serve", Name: "serve.rejected", Unit: "count", Better: lower, Doc: "429 answers (ServeStats.Rejected)"},
	{Layer: "serve", Name: "serve.promotions", Unit: "count", Better: higher, Doc: "successful promotions"},
	{Layer: "serve", Name: "serve.promotions_refused", Unit: "count", Better: lower, Doc: "refused promotions"},
	{Layer: "serve", Name: "serve.promote_ms_p50", Unit: "ms", Better: lower, Doc: "SnapshotPromoter.OnSnapshot (frame, CRC, decode, swap), median"},

	{Layer: "model", Name: "model.predict_dense_ns", Unit: "ns", Better: lower, Doc: "Model.PredictDense at the served dimension"},
	{Layer: "model", Name: "model.predict_sparse_ns", Unit: "ns", Better: lower, Doc: "Model.PredictSparse, 16 nonzeros"},
	{Layer: "model", Name: "model.predict_batch_ns_per_ex", Unit: "ns", Better: lower, Doc: "Model.PredictBatch of 16, per example"},
	{Layer: "model", Name: "model.save_load_ms", Unit: "ms", Better: lower, Doc: "SaveModel + LoadModel + Handle through a buffer"},

	{Layer: "machine", Name: "machine.cold_point_ms_p50", Unit: "ms", Better: lower, Doc: "host time of a cold simulation point (sweep/task span), median"},
	{Layer: "machine", Name: "machine.memo_point_us_p50", Unit: "us", Better: lower, Doc: "host time of a memoised (paired) point, median"},
	{Layer: "cache", Name: "cache.access_ns.seq", Unit: "ns", Better: lower, Doc: "Hierarchy.Access, one core streaming sequentially"},
	{Layer: "cache", Name: "cache.access_ns.pingpong", Unit: "ns", Better: lower, Doc: "Hierarchy.Access, two cores writing one line in turn"},
	{Layer: "trace", Name: "trace.dense_ns_per_access", Unit: "ns", Better: lower, Doc: "trace.Dense step / accesses it generates"},
	{Layer: "trace", Name: "trace.sparse_ns_per_access", Unit: "ns", Better: lower, Doc: "trace.Sparse step / accesses it generates"},
	{Layer: "simd", Name: "simd.cycles_ns", Unit: "ns", Better: lower, Doc: "Stream.Cycles of one dense step stream"},
	{Layer: "kernels", Name: "kernels.stepstream_ns", Unit: "ns", Better: lower, Doc: "Dense.StepStream construction"},
	{Layer: "sweep", Name: "sweep.parallel_eff", Unit: "ratio", Better: higher, Doc: "sum of per-point host time / (P x wall) of the cold list"},

	{Layer: "obs", Name: "obs.hooks_overhead_ratio", Unit: "ratio", Better: lower, Doc: "train repetition with Hooks+Tracer+TimeSeries / bare"},
	{Layer: "obs", Name: "obs.tracer_span_ns", Unit: "ns", Better: lower, Doc: "Tracer.Begin + End"},
	{Layer: "obs", Name: "obs.flight_record_ns", Unit: "ns", Better: lower, Doc: "FlightRecorder.Record"},
	{Layer: "obs", Name: "obs.hist_observe_ns", Unit: "ns", Better: lower, Doc: "Histogram.Observe"},

	{Layer: "process", Name: "proc.peak_rss_mb", Unit: "MB", Better: lower, Doc: "VmHWM of the workload's process"},
	{Layer: "process", Name: "proc.alloc_mb", Unit: "MB", Better: lower, Doc: "runtime.MemStats.TotalAlloc"},
	{Layer: "process", Name: "proc.gc_pause_ms", Unit: "ms", Better: lower, Doc: "runtime.MemStats.PauseTotalNs"},
	{Layer: "process", Name: "proc.gc_cpu_frac", Unit: "ratio", Better: lower, Doc: "runtime.MemStats.GCCPUFraction"},
	{Layer: "process", Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: lower, Doc: "primary metric untraced / traced (time-like: > 1 means tracing costs)"},
	{Layer: "process", Name: "harness.loadavg", Unit: "load", Better: lower, Doc: "1-minute load average before the run"},
}

func findMetric(name string) (metricSpec, bool) {
	for _, set := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// The four phases every workload runs, in this order.
const (
	phTrain = iota
	phSim
	phComm
	phServe
	numPhases
)

var phaseNames = [numPhases]string{"train", "sim", "comm", "serve"}

// trainInput shapes the training phase.
type trainInput struct {
	Sig     string
	Sparse  bool
	N, M    int
	Density float64 // sparse only
	Epochs  int
	Step    float32
	Decay   float32
	Threads int // 0 = P
	// Supervised routes the repetitions through RunSparse/RunDense with
	// CheckpointEvery = 1 and a fresh checkpoint directory each.
	Supervised bool
}

// simInput shapes the simulated-machine phase: which point list, and how
// many of its layouts (Full is the sim_machine list, otherwise the short
// background list).
type simInput struct {
	Full bool
	// Tiny selects three small layouts (the -scale tiny smoke).
	Tiny bool
}

// commInput shapes the cluster + TrainSync phase.
type commInput struct {
	N, M          int
	ClusterEpochs int
	SyncEpochs    int
}

// serveInput shapes the serving phase.
type serveInput struct {
	Dim int
	// Train runs supervised training beside the load, promoting every
	// checkpoint (the servload horizon-extension loop).
	Train bool
}

type workload struct {
	Name string
	Why  string
	// Primary names the phase the workload is sized for and the metric the
	// trace-overhead ratio is taken on.
	Primary       int
	PrimaryMetric string
	// Share splits the run's seconds over the phases.
	Share [numPhases]float64
	Train trainInput
	Sim   simInput
	Comm  commInput
	Serve serveInput
}

// The background inputs: what a phase runs when the workload is not about
// it. Small, so that the run's seconds go to the primary phase, and the
// same everywhere, so that a background number means the same on every row.
var (
	bgTrain = trainInput{Sig: "D8M8", N: 512, M: 4096, Epochs: 6, Step: 0.05, Decay: 0.8}
	bgSim   = simInput{}
	bgComm  = commInput{N: 512, M: 2048, ClusterEpochs: 3, SyncEpochs: 3}
	bgServe = serveInput{Dim: 512}
)

var workloads = []workload{
	{
		Name:    "dense_large",
		Why:     "dense D8M8 n=4096: SWAR dot/axpy and rounding are most of a step, so kernels/fixed/prng and NumHealth changes show here",
		Primary: phTrain, PrimaryMetric: "train_nps",
		Share: [numPhases]float64{0.40, 0.20, 0.20, 0.20},
		Train: trainInput{Sig: "D8M8", N: 4096, M: 8192, Epochs: 6, Step: 0.03, Decay: 0.8},
		Sim:   bgSim, Comm: bgComm, Serve: bgServe,
	},
	{
		Name:    "sparse_supervised",
		Why:     "sparse D8i16M8 ~65 nnz under the supervisor: per-step engine overhead and per-epoch checkpoints dominate, dense SWAR work is nil",
		Primary: phTrain, PrimaryMetric: "train_nps",
		Share: [numPhases]float64{0.40, 0.20, 0.20, 0.20},
		Train: trainInput{Sig: "D8i16M8", Sparse: true, N: 65536, M: 20000, Density: 0.001, Epochs: 15, Step: 0.01, Supervised: true},
		Sim:   bgSim, Comm: bgComm, Serve: bgServe,
	},
	{
		Name:    "sim_machine",
		Why:     "the experiments-all path: cold machine.Simulate layouts then memoised pairs; touches no training or serving code in its primary phase",
		Primary: phSim, PrimaryMetric: "sim_accesses_per_s",
		Share: [numPhases]float64{0.20, 0.40, 0.20, 0.20},
		Train: bgTrain, Sim: simInput{Full: true}, Comm: bgComm, Serve: bgServe,
	},
	{
		Name:    "comm_quant",
		Why:     "cluster node loop, TrainSync and the wire quantiser on one D32fM32f set; single-goroutine and bit-deterministic, the low-noise row",
		Primary: phComm, PrimaryMetric: "cluster_msgs_per_s",
		Share: [numPhases]float64{0.20, 0.20, 0.40, 0.20},
		Train: bgTrain, Sim: bgSim, Comm: commInput{N: 512, M: 8192, ClusterEpochs: 6, SyncEpochs: 8}, Serve: bgServe,
	},
	{
		Name:    "serve_only",
		Why:     "closed-loop /predict traffic on loopback with nothing competing: serve + Model predict + HTTP/JSON, the latency floor",
		Primary: phServe, PrimaryMetric: "req_per_s",
		Share: [numPhases]float64{0.20, 0.20, 0.20, 0.40},
		Train: bgTrain, Sim: bgSim, Comm: bgComm, Serve: bgServe,
	},
	{
		Name:    "serve_train",
		Why:     "the same traffic while RunDense trains and promotes every checkpoint: always-runnable SGD workers compete with the netpoller",
		Primary: phServe, PrimaryMetric: "req_per_s",
		Share: [numPhases]float64{0.20, 0.20, 0.20, 0.40},
		Train: trainInput{Sig: "D8M8", N: 512, M: 10000, Epochs: 6, Step: 0.05, Decay: 0.8, Threads: 1},
		Sim:   bgSim, Comm: bgComm, Serve: serveInput{Dim: 512, Train: true},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tiny shrinks a workload's inputs for the -scale tiny smoke: same code
// paths, a few milliseconds of work each.
func (w workload) tiny() workload {
	w.Train.N = min(w.Train.N, 256)
	w.Train.M = min(w.Train.M, 256)
	if w.Train.Sparse {
		w.Train.N, w.Train.Density = 4096, 0.004
	}
	w.Train.Epochs = 2
	w.Sim = simInput{Tiny: true}
	w.Comm.N, w.Comm.M = 32, 64
	w.Comm.ClusterEpochs, w.Comm.SyncEpochs = 1, 1
	w.Serve.Dim = 32
	if w.Serve.Train {
		w.Train.N = w.Serve.Dim
	}
	return w
}
