package main

// The serve subcommand: a long-lived training-and-inference daemon.
//
//	buckwild serve -addr :8372 -sig D8M8 -n 1024 -threads 4
//
// It answers POST /predict off an atomically-swapped immutable model
// while a supervised training loop runs in the background: each round
// trains -epochs more epochs on a freshly generated batch of examples
// (the synthetic stand-in for a streaming example source), checkpoints
// through the supervisor, and every checkpoint is round-tripped through
// the framed model format (CRC validated) and hot-promoted into
// serving. The health watchdog gates promotion: a diverged round stops
// promoting and the last healthy model keeps serving. GET /metrics
// serves the Prometheus exposition of both halves (serving latency,
// batch sizes, rejections, promotions; training steps, loss, health).
// SIGTERM/SIGINT drain gracefully: new requests get 503, in-flight
// requests complete, training stops at the next epoch boundary leaving
// its newest checkpoint on disk, and -save persists the final weights.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"buckwild"
	"buckwild/internal/obs"
)

// promotionGate chains the health watchdog's divergence signal into the
// serving tier (never promote a diverged model); every callback also
// goes to the embedded live metrics.
type promotionGate struct {
	*obs.LiveMetrics
	srv *buckwild.ModelServer
}

func (g *promotionGate) OnEpoch(ei buckwild.EpochInfo) {
	if di := ei.Divergence; di != nil {
		g.srv.RefusePromotions(fmt.Sprintf("health watchdog: %s at epoch %d", di.Reason, di.Epoch))
	}
	g.LiveMetrics.OnEpoch(ei)
}

// serveCmd implements the serve subcommand.
func serveCmd(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8372", "listen address for /predict, /healthz, /metrics")
		maxBatch   = fs.Int("max-batch", 64, "max examples grouped into one predict call")
		queueDepth = fs.Int("queue-depth", 256, "admission queue depth; a full queue answers 429")
		batchWait  = fs.Duration("batch-wait", 0, "hold a non-full batch open this long for more work (0 = serve immediately)")
		drainTO    = fs.Duration("drain-timeout", 10*time.Second, "graceful drain bound on SIGTERM")

		sig      = fs.String("sig", "D8M8", "DMGC signature for background training")
		problem  = fs.String("problem", "logistic", "problem: logistic, linear or svm")
		rounding = fs.String("rounding", "unbiased-shared", "rounding: biased, unbiased-mt, unbiased-xorshift, unbiased-shared")
		n        = fs.Int("n", 512, "model size (elements)")
		m        = fs.Int("m", 10000, "examples generated per training round")
		sparse   = fs.Bool("sparse", false, "train on sparse synthetic data")
		density  = fs.Float64("density", 0.03, "sparse nonzero density")
		threads  = fs.Int("threads", 1, "asynchronous training workers")
		epochs   = fs.Int("epochs", 4, "epochs per training round")
		step     = fs.Float64("step", 0, "step size eta (0 = auto)")
		decay    = fs.Float64("decay", 1.0, "per-epoch step decay")
		seed     = fs.Uint64("seed", 1, "random seed; round r draws its examples from seed+r")
		rounds   = fs.Int("rounds", 0, "training rounds before training idles (0 = train until SIGTERM)")

		ckptDir   = fs.String("checkpoint-dir", "", "checkpoint directory (default: a fresh temp dir)")
		ckptEvery = fs.Int("checkpoint-every", 1, "checkpoint (and promotion-candidate) period in epochs")
		retries   = fs.Int("retries", 3, "max retries per round after crashes or stalls")
		stallTO   = fs.Duration("stall-timeout", 0, "cancel and retry a training attempt with no progress for this long")

		modelPath = fs.String("model", "", "serve this model file until the first promotion")
		save      = fs.String("save", "", "write the newest checkpoint's model here on shutdown")

		logFormat = fs.String("log-format", "text", "structured log format: text or json")
		logLevel  = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		slowReq   = fs.Duration("slow-request", 0, "log (and flight-record) requests slower than this, e.g. 50ms (0 = off)")
		bundleDir = fs.String("bundle-dir", ".", "write anomaly-triggered debug bundles (*.debugbundle.tar.gz) into this directory; empty disables")
		profDir   = fs.String("profile-dir", "", "continuously capture CPU/heap/goroutine/mutex pprof profiles into a bounded on-disk ring in this directory")
		profEvery = fs.Duration("profile-interval", 0, "continuous profiler capture cadence (0 = default 30s; with -profile-dir)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: buckwild serve [flags]")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	// The daemon's post-mortem ring, fed by the logger: promotions,
	// refusals, slow requests, supervisor retries and drain transitions,
	// served at GET /debug/flight and dumped to stderr on SIGQUIT.
	rec := buckwild.NewFlightRecorder(0)
	logger := buildLogger(*logFormat, *logLevel, rec)
	watchSIGQUIT(rec)

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	dir := *ckptDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "buckwild-serve-*"); err != nil {
			fatal(err)
		}
		logger.Info("checkpoints in temp dir (pass -checkpoint-dir to persist across restarts)",
			slog.String("dir", dir))
	}

	var profiler *buckwild.Profiler
	if *profDir != "" {
		var err error
		profiler, err = buckwild.NewProfiler(buckwild.ProfileConfig{
			Dir: *profDir, Interval: *profEvery, Logger: logger,
		})
		if err != nil {
			fatal(err)
		}
		profiler.Start()
		defer profiler.Stop()
	}

	// The daemon-lifetime time-series: the training rounds tick it with
	// cumulative epochs, so the dashboard's charts and a bundle's series
	// section span every round.
	series := buckwild.NewSeries(0)
	live := &obs.LiveMetrics{}
	surface := newSurface(&buckwild.Surface{
		Flight: rec, Series: series, Profiler: profiler, Live: live,
	}, fs, *bundleDir, "buckwild-serve", logger)
	srv, err := buckwild.NewModelServer(buckwild.ServeConfig{
		Addr:         *addr,
		MaxBatch:     *maxBatch,
		QueueDepth:   *queueDepth,
		BatchWait:    *batchWait,
		DrainTimeout: *drainTO,
		Logger:       logger,
		SlowRequest:  *slowReq,
		Surface:      surface,
	})
	if err != nil {
		fatal(err)
	}
	if err := srv.Start(); err != nil {
		fatal(err)
	}
	fmt.Printf("serving on http://%s — POST /predict, GET /healthz, GET /metrics, GET /debug/flight, /debug/dash, /debug/bundle\n", srv.Addr())

	if *modelPath != "" {
		sm, err := buckwild.LoadModelFile(*modelPath)
		if err != nil {
			fatal(err)
		}
		h, err := sm.Handle()
		if err != nil {
			fatal(err)
		}
		if _, err := srv.Promote(h, 0, 0); err != nil {
			fatal(err)
		}
	}

	eta := *step
	if eta == 0 {
		eta = 6 / float64(*n)
		if *sparse {
			eta = 6 / (*density * float64(*n))
		}
	}

	// The background training loop: round r trains the cumulative epoch
	// horizon (r+1)*epochs on a fresh batch of examples drawn from
	// seed+r — the synthetic stand-in for streamed training data. The
	// supervisor resumes each round from the previous round's newest
	// checkpoint, and every checkpoint boundary publishes a promotion
	// candidate through the Snapshotter.
	trainDone := make(chan struct{})
	go func() {
		defer close(trainDone)
		for r := 0; *rounds == 0 || r < *rounds; r++ {
			if ctx.Err() != nil {
				return
			}
			roundCtx, cancelCause := context.WithCancelCause(ctx)
			gate := &promotionGate{LiveMetrics: live, srv: srv}
			cfg := buckwild.Config{
				Signature:  *sig,
				Problem:    buckwild.Problem(*problem),
				Rounding:   buckwild.Rounding(*rounding),
				Threads:    *threads,
				StepSize:   float32(eta),
				StepDecay:  float32(*decay),
				Epochs:     (r + 1) * *epochs,
				Seed:       *seed,
				NumHealth:  true,
				Hooks:      &buckwild.HealthWatchdog{Cancel: cancelCause, Bundle: surface.Bundle, Next: gate},
				Logger:     logger,
				TimeSeries: series,
				Bundle:     surface.Bundle,
				Context:    roundCtx,
			}
			rc := buckwild.RunConfig{
				CheckpointDir:   dir,
				CheckpointEvery: *ckptEvery,
				MaxRetries:      *retries,
				StallTimeout:    *stallTO,
				Snapshotter:     buckwild.SnapshotPromoter(srv),
			}
			var err error
			if *sparse {
				var ds *buckwild.SparseDataset
				if ds, err = buckwild.GenerateSparse(*sig, *n, *m, *density, *seed+uint64(r)); err == nil {
					_, err = buckwild.RunSparse(cfg, rc, ds)
				}
			} else {
				var ds *buckwild.DenseDataset
				if ds, err = buckwild.GenerateDense(*sig, *n, *m, *seed+uint64(r)); err == nil {
					_, err = buckwild.RunDense(cfg, rc, ds)
				}
			}
			cancelCause(nil)
			switch {
			case err == nil:
				logger.Info("training round done",
					slog.Int("round", r), slog.Int("cumulative_epoch", (r+1)**epochs))
			case errors.Is(err, context.Canceled) && ctx.Err() != nil:
				return // shutting down; newest checkpoint stays on disk
			case errors.Is(err, buckwild.ErrDivergence):
				// The watchdog already gated promotions; the last healthy
				// model keeps serving. Training stops rather than diverge
				// again on the same trajectory.
				logger.Warn("training diverged, promotions gated, serving continues",
					slog.String("component", "run"), slog.String("event", "divergence"),
					slog.Int("round", r), slog.String("error", err.Error()))
				return
			default:
				logger.Error("training stopped", slog.String("error", err.Error()))
				return
			}
		}
		logger.Info("training idle, serving continues", slog.Int("rounds", *rounds))
	}()

	// Serve until SIGTERM/SIGINT, then drain: stop admitting, flush
	// in-flight requests, stop training at the next epoch boundary
	// (its newest checkpoint is the final one), persist with -save.
	<-ctx.Done()
	stopSignals()
	logger.Info("signal received, draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Warn("drain", slog.String("error", err.Error()))
	}
	<-trainDone
	st := srv.Metrics().Snapshot()
	fmt.Printf("served %d requests (%d examples), p50 %.0fus p99 %.0fus; %d rejected, %d promotions (%d refused)\n",
		st.Requests, st.Examples, st.LatencyUS.Quantile(0.5), st.LatencyUS.Quantile(0.99),
		st.Rejected, st.Promotions, st.PromotionsRefused)
	if *save != "" {
		ck, path, _, err := buckwild.LoadLatestCheckpoint(dir)
		if err != nil {
			fatal(err)
		}
		if ck == nil {
			logger.Warn("no checkpoint to save (training never reached an epoch boundary)")
			return
		}
		w, err := ck.Weights()
		if err != nil {
			fatal(err)
		}
		if err := buckwild.SaveModelFile(*save, *sig, w); err != nil {
			fatal(err)
		}
		fmt.Printf("final model (from %s, epoch %d) saved to %s\n", path, ck.Epoch, *save)
	}
}
