// Package cluster is the simulated multi-node tier of the reproduction:
// N machines composed over a latency/bandwidth-modeled interconnect with
// exact per-message byte accounting. It extends the DMGC communication
// term beyond the cache-coherence fabric — the same low-precision
// communication trade the paper studies between cores (Section 6), with
// network bytes standing in for cache lines.
//
// Two interchangeable protocols run behind one entry point:
//
//   - ParamServer: an asynchronous parameter server. Each node pulls the
//     model, computes a mini-batch gradient, and pushes it quantized to
//     the wire precision; the server applies pushes as they arrive, with
//     an optional staleness-compensated learning rate (the per-update
//     step is scaled down by the observed update staleness, per "Faster
//     Asynchronous SGD"). The protocol is simulated as a discrete-event
//     system, so runs are deterministic under a fixed seed even though
//     the modeled execution is asynchronous.
//
//   - AllReduce: a double-buffered, pipelined all-reduce. Round k trains
//     while round k-1's reduction is still in flight, so communication
//     hides behind compute (the overlap trick of asynchronous
//     data-parallel optimizers); the model update always trails the
//     gradient that produced it by exactly one round.
//
// Both protocols quantize gradients on the wire through the
// kernels.Quantizer paths — the same rounding machinery the training
// kernels use — with per-node error feedback as in the synchronous
// engine, and both count every wire byte exactly (header, gradient
// payload, model payload) into obs.ClusterStats.
package cluster

import (
	"context"
	"fmt"
	"log/slog"

	"buckwild/internal/core"
	"buckwild/internal/dataset"
	"buckwild/internal/fixed"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
)

// Protocol selects the communication protocol.
type Protocol int

const (
	// ParamServer is the asynchronous push/pull parameter server.
	ParamServer Protocol = iota
	// AllReduce is the double-buffered pipelined all-reduce.
	AllReduce
)

// String names the protocol as it appears in stats and reports.
func (p Protocol) String() string {
	switch p {
	case ParamServer:
		return "param-server"
	case AllReduce:
		return "all-reduce"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// DefaultComputeGNPS is the modeled per-node compute throughput (dataset
// numbers per second) — a 1 GNPS node, the order of the paper's
// single-thread full-precision baseline.
const DefaultComputeGNPS = 1e9

// Config configures a simulated cluster training run.
type Config struct {
	Problem core.Problem
	// Nodes is the simulated machine count (>= 1).
	Nodes int
	// Protocol selects ParamServer or AllReduce.
	Protocol Protocol
	// WireBits is the gradient wire precision: 4, 8 or 16 reuse the
	// corresponding kernels quantizer; 32 communicates full-precision
	// gradients.
	WireBits uint
	// Quant picks the wire rounding strategy (ignored at 32 bits).
	Quant kernels.QuantKind
	// ErrorFeedback carries each node's quantization residual into its
	// next transfer (the synchronous engine's essential trick).
	ErrorFeedback bool
	// BatchPerNode is the examples a node processes per gradient message
	// (default 8).
	BatchPerNode int
	// StepSize is the initial eta; StepDecay multiplies it per epoch
	// (default 1: constant step).
	StepSize  float32
	StepDecay float32
	Epochs    int
	Seed      uint64
	// StalenessAlpha enables staleness-compensated updates: an update
	// observed s model updates stale is applied with eta/(1+alpha*s).
	// Zero disables compensation.
	StalenessAlpha float64
	// Ctx, when non-nil, bounds the run: it is checked between simulated
	// events/rounds, and cancellation returns context.Cause(Ctx).
	Ctx context.Context
	// TraceTIDBase is the first trace track id the run's per-node tracks
	// claim when a Tracer is installed (zero selects
	// DefaultTraceTIDBase). Sweeps tracing several runs into one tracer
	// give each run a distinct base so their tracks do not collide.
	TraceTIDBase int
	// Observer installs the run-level observability layer: the staleness
	// histogram and epoch hooks, trace spans, the windowed time-series,
	// and wire numerical health. Nil skips all of it; the exact wire-byte
	// accounting on Result.Cluster is always produced.
	Observer *obs.Observer
	// Live, when non-nil, receives live per-node counters for Prometheus
	// exposition (its methods are nil-safe, so nil is free).
	Live *obs.ClusterMetrics
	// Logger, when non-nil, receives one Info record per finished epoch
	// (event "epoch"). Nil is silent at no cost.
	Logger *slog.Logger
}

func (c *Config) fill() error {
	if c.Nodes < 1 {
		return fmt.Errorf("cluster: need at least 1 node, got %d", c.Nodes)
	}
	switch c.Protocol {
	case ParamServer, AllReduce:
	default:
		return fmt.Errorf("cluster: unknown protocol %d", int(c.Protocol))
	}
	switch c.WireBits {
	case 4, 8, 16, 32:
	default:
		return fmt.Errorf("cluster: unsupported wire precision %d (use 4, 8, 16 or 32)", c.WireBits)
	}
	if c.BatchPerNode < 0 {
		return fmt.Errorf("cluster: negative batch per node %d", c.BatchPerNode)
	}
	if c.BatchPerNode == 0 {
		c.BatchPerNode = 8
	}
	if c.StepSize <= 0 {
		return fmt.Errorf("cluster: StepSize must be positive")
	}
	if c.StepDecay == 0 {
		c.StepDecay = 1
	}
	if c.StepDecay < 0 || c.StepDecay > 1 {
		return fmt.Errorf("cluster: StepDecay must be in (0, 1]")
	}
	if c.Epochs < 1 {
		c.Epochs = 1
	}
	if c.StalenessAlpha < 0 {
		return fmt.Errorf("cluster: negative staleness compensation %v", c.StalenessAlpha)
	}
	return nil
}

// computeSeconds models a node processing examples of dimension dim.
func computeSeconds(examples, dim int) float64 {
	return float64(examples) * float64(dim) / DefaultComputeGNPS
}

// etaAt replays the per-epoch decay schedule.
func (c *Config) etaAt(epoch int) float32 {
	eta := c.StepSize
	for i := 0; i < epoch; i++ {
		eta *= c.StepDecay
	}
	return eta
}

// compensate scales eta by the staleness-compensation rule and reports
// whether it changed anything.
func (c *Config) compensate(eta float32, staleness uint64) (float32, bool) {
	if c.StalenessAlpha == 0 || staleness == 0 {
		return eta, false
	}
	return float32(float64(eta) / (1 + c.StalenessAlpha*float64(staleness))), true
}

// ctxErr returns the context's cause if ctx is cancelled, nil otherwise.
func ctxErr(ctx context.Context) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	return context.Cause(ctx)
}

// Train runs the configured protocol over a dense dataset. Like the
// synchronous C-term engine, the cluster tier isolates communication
// precision: nodes compute full-precision local gradients (over ds.Raw)
// and only the wire carries low-precision values. The returned Result
// carries the final model, the per-epoch loss trajectory, and the exact
// wire accounting on Result.Cluster.
func Train(cfg Config, ds *dataset.DenseSet) (*core.Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("cluster: empty dataset")
	}
	if ds.Len() < cfg.Nodes {
		return nil, fmt.Errorf("cluster: %d examples cannot shard over %d nodes", ds.Len(), cfg.Nodes)
	}
	e, err := newEngine(&cfg, ds)
	if err != nil {
		return nil, err
	}
	span := e.span()
	var res *core.Result
	switch cfg.Protocol {
	case ParamServer:
		res, err = e.runParamServer()
	default:
		res, err = e.runAllReduce()
	}
	if err != nil {
		return nil, err
	}
	span.EndArgs(map[string]string{
		"nodes": fmt.Sprint(cfg.Nodes), "wire_bits": fmt.Sprint(cfg.WireBits),
		"sim_seconds": fmt.Sprintf("%.6g", res.Cluster.SimSeconds),
	})
	return res, nil
}

// engine holds the state shared by both protocols.
type engine struct {
	cfg   *Config
	ds    *dataset.DenseSet
	meter wireMeter
	// stats is the run's cluster snapshot, filled as the protocols go;
	// stale is its staleness histogram (single-goroutine, so the
	// snapshot form is observed into directly).
	stats obs.ClusterStats
	// nc counts wire numerical health when the Observer asks for it
	// (single-goroutine: one block serves every node's codec).
	nc *fixed.NumCounts
	// losses is the trajectory; losses[0] is the pre-training loss.
	losses []float64
	// updates counts applied model updates (pushes or reduced rounds).
	updates uint64
	// perNode attributes updates, bytes, time and staleness to each node
	// (always collected; N is small and the sim is far from any hot path).
	perNode []obs.NodeStats
	// st lays the run out on per-node trace tracks; nil when untraced.
	st *simTrace
	// dots holds a batch's inner products (accumGrad's scratch).
	dots []float32
}

func newEngine(cfg *Config, ds *dataset.DenseSet) (*engine, error) {
	e := &engine{cfg: cfg, ds: ds, dots: make([]float32, cfg.BatchPerNode)}
	e.stats.Nodes = cfg.Nodes
	e.stats.Protocol = cfg.Protocol.String()
	e.stats.WireBits = cfg.WireBits
	if cfg.Observer != nil && cfg.Observer.NumHealth {
		e.nc = &fixed.NumCounts{}
	}
	e.perNode = make([]obs.NodeStats, cfg.Nodes)
	for k := range e.perNode {
		e.perNode[k].Node = k
	}
	cfg.Live.Reset(cfg.Nodes)
	e.st = newSimTrace(cfg.Observer, cfg.TraceTIDBase, cfg.Nodes, cfg.Protocol)
	loss, err := core.SyncLoss(cfg.Problem, make([]float32, ds.N), ds)
	if err != nil {
		return nil, err
	}
	e.losses = append(e.losses, loss)
	return e, nil
}

// codec builds node's wire codec, attaching the shared health counter.
func (e *engine) codec(node int) (*wireCodec, error) {
	c, err := newWireCodec(e.cfg.WireBits, e.cfg.Quant, e.cfg.Seed, node)
	if err != nil {
		return nil, err
	}
	c.counts(e.nc)
	return c, nil
}

// accumGrad computes the mean full-precision gradient of examples
// [lo, hi) at model w into g (overwritten), through the same row helpers
// as the synchronous engine; the mean scales by ·(1/B) here, by /B there.
func (e *engine) accumGrad(w, g []float32, lo, hi int) {
	clear(g)
	if hi <= lo {
		return
	}
	inv := 1 / float32(hi-lo)
	rows, ys, dots := e.ds.Raw[lo:hi], e.ds.Y[lo:hi], e.dots[:hi-lo]
	core.RowDots(dots, w, rows)
	for i, row := range rows {
		if a := core.GradScale(e.cfg.Problem, dots[i], ys[i], 1) * inv; a != 0 {
			core.RowAxpy(a, row, g)
		}
	}
}

// nodeSent attributes one sent message (header + payload bytes, dt
// simulated transfer seconds) to node k, in the per-node snapshot and
// the live Prometheus collector.
func (e *engine) nodeSent(k, payload int, dt float64) {
	bytes := uint64(DefaultHeaderBytes + payload)
	e.perNode[k].WireBytes += bytes
	e.perNode[k].CommSeconds += dt
	e.cfg.Live.AddWireBytes(k, bytes)
}

// nodeUpdate attributes one landed model update to node k.
func (e *engine) nodeUpdate(k int, staleness uint64) {
	e.perNode[k].Updates++
	e.perNode[k].Staleness.Observe(staleness)
	e.cfg.Live.ObserveUpdate(k, staleness)
}

// observeUpdate records one applied model update: its staleness (into the
// cluster histogram and, when sampled, the time-series) and whether the
// compensation rule scaled it.
func (e *engine) observeUpdate(staleness uint64, g []float32, compensated bool) {
	e.updates++
	e.stats.Staleness.Observe(staleness)
	if compensated {
		e.stats.CompensatedUpdates++
	}
	if o := e.cfg.Observer; o != nil && o.Series != nil {
		var sum float64
		for _, v := range g {
			if v < 0 {
				sum -= float64(v)
			} else {
				sum += float64(v)
			}
		}
		o.Series.ObserveSample(staleness, sum/float64(len(g)))
	}
}

// epochDone records an epoch boundary: the loss is appended, the epoch is
// logged, hooks fire, the time-series ticks, and a trace instant marks
// the simulated time.
func (e *engine) epochDone(epoch int, loss, simT float64) {
	e.losses = append(e.losses, loss)
	if l := e.cfg.Logger; l != nil {
		l.Info("epoch done", slog.String("event", "epoch"),
			slog.Int("epoch", epoch), slog.Float64("loss", loss),
			slog.Uint64("updates", e.updates), slog.Float64("sim_seconds", simT))
	}
	o := e.cfg.Observer
	if o == nil {
		return
	}
	if o.Hooks != nil {
		o.Hooks.OnEpoch(obs.EpochInfo{Epoch: epoch, Loss: loss, Steps: e.updates})
	}
	if o.Series != nil {
		o.Series.EpochTick(epoch, loss, e.updates, 0)
	}
	if o.Tracer != nil {
		o.Tracer.Instant("cluster", "epoch", 0, map[string]string{
			"epoch": fmt.Sprint(epoch), "loss": fmt.Sprintf("%.6g", loss),
			"sim_seconds": fmt.Sprintf("%.6g", simT),
		})
	}
}

// span opens the run-level trace span (a no-op handle without a tracer).
func (e *engine) span() obs.SpanHandle {
	var tr *obs.Tracer
	if e.cfg.Observer != nil {
		tr = e.cfg.Observer.Tracer
	}
	return tr.Begin("cluster", "train-"+e.cfg.Protocol.String(), 0)
}

// result assembles the final Result from the engine's state.
func (e *engine) result(w []float32, simT, computeSec, commSec float64) *core.Result {
	e.meter.fillStats(&e.stats)
	e.stats.SimSeconds = simT
	e.stats.ComputeSeconds = computeSec
	e.stats.CommSeconds = commSec
	e.stats.PerNode = e.perNode
	e.stats.FinishPerNode()
	if simT > 0 {
		e.stats.ExamplesPerSimSec = float64(e.ds.Len()*e.cfg.Epochs) / simT
	}
	res := &core.Result{
		W:         w,
		TrainLoss: e.losses,
		Steps:     int(e.updates),
		Cluster:   &e.stats,
	}
	if o := e.cfg.Observer; o != nil {
		s := &obs.RunStats{
			Steps:        e.updates,
			SampledSteps: e.stats.Staleness.Count,
			Staleness:    e.stats.Staleness,
		}
		if e.nc != nil {
			s.NumHealth = core.NumStats(e.nc, "wire-"+e.cfg.Quant.String())
		}
		res.Stats = s
		if o.Series != nil {
			res.Series = o.Series.Snapshot()
		}
	}
	return res
}
