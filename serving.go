package buckwild

import (
	"bytes"
	"log/slog"
	"time"

	"buckwild/internal/obs"
	"buckwild/internal/serve"
)

// This file is the facade over internal/serve: the production serving
// tier. A ModelServer answers /predict off an atomically-swapped
// immutable Model; SnapshotPromoter connects a supervised training run
// (RunConfig.Snapshotter) to it so every checkpoint becomes a candidate
// for hot promotion, routed through the framed model format (CRC
// validated) before the swap.

// Serving re-exports.
type (
	// ModelServer is the serving daemon: Start it, feed it models with
	// Promote, and stop it with Drain. See NewModelServer.
	ModelServer = serve.Server
	// ServeMetrics is the serving tier's lock-free counter set.
	ServeMetrics = obs.ServeMetrics
	// ServeStats is the exportable snapshot of a ServeMetrics.
	ServeStats = obs.ServeStats
)

// ServeConfig configures a ModelServer. The zero value is usable: it
// serves on 127.0.0.1:8372 with a 64-example batch cap and a 256-job
// admission queue.
type ServeConfig struct {
	// Addr is the listen address (default "127.0.0.1:8372"; ":0" lets
	// the kernel pick a port, read back with ModelServer.Addr).
	Addr string
	// MaxBatch caps the examples grouped into one predict call
	// (default 64).
	MaxBatch int
	// QueueDepth bounds the admission queue in requests; a full queue
	// answers 429 instead of queueing without bound (default 256).
	QueueDepth int
	// BatchWait is how long the batcher holds a non-full batch open for
	// more work; zero serves whatever is queued immediately (lowest
	// latency, smaller batches).
	BatchWait time.Duration
	// DrainTimeout bounds the graceful drain on shutdown (default 10s).
	DrainTimeout time.Duration
	// Tracer, when non-nil, records request -> batch -> predict spans,
	// per-job queue-wait spans, and batch-assembly spans.
	Tracer *Tracer
	// Logger, when non-nil, receives the daemon's events scoped to the
	// "serve" component: promotions, refused promotions, the promotion
	// gate, slow requests and drain progress. They reach a flight ring
	// rec when the logger's handler is rec.LogHandler(h). Nil is silent.
	Logger *slog.Logger
	// SlowRequest, when positive, logs completed requests slower than
	// this threshold.
	SlowRequest time.Duration
	// Surface is the daemon's debug surface, mounted beside /predict
	// (/metrics, /debug/flight, /debug/dash, /debug/bundle; no pprof).
	// Its Bundle is triggered on each slow request (debounced), and the
	// server installs its counters as its Serve, so put the training
	// side's LiveMetrics in its Live and one scrape covers both halves of
	// the daemon. Nil gets a surface of its own.
	Surface *Surface
}

func (sc ServeConfig) internal() serve.Config {
	return serve.Config{
		Addr:         sc.Addr,
		MaxBatch:     sc.MaxBatch,
		QueueDepth:   sc.QueueDepth,
		BatchWait:    sc.BatchWait,
		DrainTimeout: sc.DrainTimeout,
		Tracer:       sc.Tracer,
		Logger:       obs.Component(sc.Logger, "serve"),
		SlowRequest:  sc.SlowRequest,
		Surface:      sc.Surface,
	}
}

// NewModelServer builds a serving daemon from cfg. The server is ready
// for Promote and Handler immediately; call Start to bind the listen
// address. Promote a *Model (from SavedModel.Handle or a Snapshotter)
// to begin answering /predict.
func NewModelServer(cfg ServeConfig) (*ModelServer, error) {
	s, err := serve.New(cfg.internal())
	return s, wrapErr(err)
}

// SnapshotPromoter adapts a ModelServer into a Snapshotter: install it
// as RunConfig.Snapshotter and every checkpoint-boundary snapshot of
// the supervised run becomes a promotion candidate. Each snapshot is
// round-tripped through the framed model format — encoded, CRC
// computed, decoded and re-validated — before the pointer swap, so the
// bytes promoted into serving are exactly the bytes a SaveModel of the
// snapshot would persist; a candidate that fails the frame or the
// server's promotion gate (divergence, non-finite loss) is dropped and
// counted in ServeMetrics, and the previously promoted model keeps
// serving.
func SnapshotPromoter(s *ModelServer) Snapshotter {
	return &snapshotPromoter{s: s}
}

type snapshotPromoter struct {
	s *ModelServer
}

func (sp *snapshotPromoter) OnSnapshot(snap ModelSnapshot) {
	if snap.Model == nil || len(snap.Model.w) == 0 {
		return
	}
	var buf bytes.Buffer
	if err := saveModel(&buf, snap.Model.sigText, snap.Model.w); err != nil {
		return
	}
	sm, err := LoadModel(&buf)
	if err != nil {
		sp.s.Metrics().PromotionRefused()
		return
	}
	m, err := sm.Handle()
	if err != nil {
		sp.s.Metrics().PromotionRefused()
		return
	}
	sp.s.Promote(m, snap.Epoch, snap.Loss)
}
