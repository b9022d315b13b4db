// Command buckwild trains a model with asynchronous low-precision SGD on a
// synthetic dataset and reports convergence and throughput. It is the
// quickest way to explore the DMGC trade-off space from the shell:
//
//	buckwild -sig D8M8 -n 1024 -m 20000 -threads 4 -epochs 10
//	buckwild -sig D8i16M8 -sparse -density 0.03 -rounding biased
//
// Sparse signatures (with an "i" index term) require -sparse.
//
// -nodes >= 2 trains on a simulated multi-node cluster instead of the
// shared-memory engine (dense datasets only): discrete-event simulated
// machines over a latency/bandwidth-modeled interconnect, gradients
// wire-quantized to the signature's C term or the explicit -wire-bits:
//
//	buckwild -sig D32fM32fC8 -nodes 4 -cluster-protocol all-reduce
//	buckwild -nodes 8 -wire-bits 8 -staleness-comp 0.3 -stats
//
// With -checkpoint-dir the run is supervised: it checkpoints
// periodically, resumes from the newest valid checkpoint after a crash
// or a detected stall (including across process restarts — rerun the
// same command to continue an interrupted run), and retries with
// exponential backoff. -fault injects a deterministic failure schedule
// for exercising those paths:
//
//	buckwild -sig D8M8 -epochs 20 -checkpoint-dir ckpt \
//	    -fault crash@step=50000,corrupt@ckpt=2
//
// SIGINT/SIGTERM cancel the run cleanly: training stops within an
// epoch, the newest checkpoint stays on disk, and a supervised run can
// be resumed later.
//
// -trace records the run's phases (attempts, epochs, checkpoints,
// resumes) as Chrome trace_event JSON loadable in chrome://tracing or
// https://ui.perfetto.dev; "buckwild trace-summary trace.json" prints a
// per-phase wall-clock breakdown of such a file. -series records the
// windowed training time-series (JSON, or CSV with a .csv path). -http
// additionally serves live Prometheus metrics at /metrics.
//
// "buckwild serve" runs the long-lived training-and-inference daemon:
// POST /predict answers off an atomically-swapped immutable model while
// a supervised training loop hot-promotes every checkpoint into
// serving. See serve.go and the README's Serving section.
//
//	buckwild serve -addr :8372 -sig D8M8 -n 1024 -threads 4
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"buckwild"
	"buckwild/internal/obs"
)

// writeSeries dumps a time-series snapshot as CSV (for .csv paths) or
// indented JSON.
func writeSeries(path string, sn *buckwild.SeriesSnapshot) error {
	if strings.HasSuffix(path, ".csv") {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := sn.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return obs.WriteJSON(path, sn)
}

// flightDump, when armed (see -flight), runs before a fatal exit so the
// post-mortem event ring reaches disk even when the run dies.
var flightDump func()

// fatal logs err and exits. Facade errors already carry a "buckwild: "
// prefix, which would stutter with the log prefix; trim it. An
// interrupt (SIGINT/SIGTERM) is not a failure: it exits 130, the
// conventional signal-exit status.
func fatal(err error) {
	if flightDump != nil {
		flightDump()
	}
	if errors.Is(err, context.Canceled) {
		log.Println("interrupted")
		os.Exit(130)
	}
	log.Fatal(strings.TrimPrefix(err.Error(), "buckwild: "))
}

// buildLogger assembles the process logger from the -log-format and
// -log-level flags and tees every warning or worse into the flight
// recorder, so the dump holds the tail of the operational log too.
func buildLogger(format, level string, rec *buckwild.FlightRecorder) *slog.Logger {
	logger, err := buckwild.NewLogger(os.Stderr, format, level)
	if err != nil {
		fatal(err)
	}
	return slog.New(rec.LogHandler(logger.Handler(), slog.LevelWarn))
}

// watchSIGQUIT dumps the flight recorder and a goroutine profile to
// stderr on SIGQUIT (kill -QUIT <pid>) and keeps running — the live
// post-mortem channel. The goroutine dump makes a hung run diagnosable
// from the first signal, without attaching a debugger or sending a
// second one.
func watchSIGQUIT(rec *buckwild.FlightRecorder) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			fmt.Fprintf(os.Stderr, "buckwild: flight recorder (%d events):\n", rec.EventCount())
			rec.WriteJSON(os.Stderr)
			if prof := pprof.Lookup("goroutine"); prof != nil {
				fmt.Fprintln(os.Stderr, "buckwild: goroutine profile:")
				prof.WriteTo(os.Stderr, 1)
			}
			fmt.Fprintln(os.Stderr)
		}
	}()
}

// resolvedFlags snapshots every flag's effective value — the "resolved
// config" section of a debug bundle. The flag string forms round-trip
// the whole CLI configuration without marshaling facade types.
func resolvedFlags() any {
	m := make(map[string]string)
	flag.VisitAll(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	return m
}

// traceSummary implements the trace-summary subcommand: a per-phase
// wall-clock breakdown of a -trace output file, followed by a per-track
// breakdown when the trace uses named tracks (per-node cluster
// timelines, per-request serve spans).
func traceSummary(args []string) {
	fs := flag.NewFlagSet("trace-summary", flag.ExitOnError)
	top := fs.Int("top", 0, "show only the N phases (and tracks) with the most total time (0 = all)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: buckwild trace-summary [-top N] <trace.json[.gz]>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	// Gzipped traces (a debug bundle's trace.json.gz) are decompressed
	// transparently by the summarizers.
	buf, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	phases, err := obs.SummarizeTrace(bytes.NewReader(buf))
	if err != nil {
		fatal(err)
	}
	if len(phases) == 0 {
		fmt.Println("no complete spans in trace")
		return
	}
	if *top > 0 && len(phases) > *top {
		fmt.Printf("top %d of %d phases by total time:\n", *top, len(phases))
		phases = phases[:*top]
	}
	fmt.Printf("%-10s %-18s %7s %14s %14s %14s %14s\n",
		"category", "phase", "count", "total", "mean", "min", "max")
	for _, p := range phases {
		fmt.Printf("%-10s %-18s %7d %14v %14v %14v %14v\n",
			p.Cat, p.Name, p.Count, p.Total.Round(time.Microsecond),
			p.Mean().Round(time.Microsecond), p.Min.Round(time.Microsecond),
			p.Max.Round(time.Microsecond))
	}
	tracks, err := obs.SummarizeTracks(bytes.NewReader(buf))
	if err != nil {
		fatal(err)
	}
	if len(tracks) <= 1 && (len(tracks) == 0 || tracks[0].Name == "") {
		return // single unnamed track: the per-phase table said it all
	}
	if *top > 0 && len(tracks) > *top {
		// The track table is normally in tid order; truncating only makes
		// sense by weight, so -top reorders it by total time.
		sort.Slice(tracks, func(i, j int) bool { return tracks[i].Total > tracks[j].Total })
		fmt.Printf("\ntop %d of %d tracks by total time:", *top, len(tracks))
		tracks = tracks[:*top]
	}
	fmt.Printf("\n%-6s %-28s %7s %7s %14s\n", "tid", "track", "spans", "flows", "total")
	for _, t := range tracks {
		name := t.Name
		if name == "" {
			name = "(default)"
		}
		fmt.Printf("%-6d %-28s %7d %7d %14v\n",
			t.TID, name, t.Spans, t.Flows, t.Total.Round(time.Microsecond))
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("buckwild: ")
	if len(os.Args) > 1 && os.Args[1] == "trace-summary" {
		traceSummary(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "bundle-summary" {
		bundleSummary(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveCmd(os.Args[2:])
		return
	}
	var (
		sig      = flag.String("sig", "D8M8", "DMGC signature (e.g. D8M8, D16M16, D32fM32f, D8i16M8)")
		problem  = flag.String("problem", "logistic", "problem: logistic, linear or svm")
		rounding = flag.String("rounding", "unbiased-shared", "rounding: biased, unbiased-mt, unbiased-xorshift, unbiased-shared")
		n        = flag.Int("n", 512, "model size (elements)")
		m        = flag.Int("m", 10000, "number of training examples")
		sparse   = flag.Bool("sparse", false, "use a sparse dataset")
		density  = flag.Float64("density", 0.03, "sparse nonzero density")
		threads  = flag.Int("threads", 1, "asynchronous workers")
		batch    = flag.Int("batch", 1, "mini-batch size B")
		epochs   = flag.Int("epochs", 10, "training epochs")
		step     = flag.Float64("step", 0, "step size eta (0 = auto: 6/n, a good default for the synthetic generator)")
		decay    = flag.Float64("decay", 1.0, "per-epoch step decay")
		generic  = flag.Bool("generic", false, "use compiler-style generic kernels")
		locked   = flag.Bool("locked", false, "lock every update (the baseline Hogwild! beats)")
		seed     = flag.Uint64("seed", 1, "random seed")
		predict  = flag.Bool("predict", true, "also print the Section 4 performance-model prediction")
		data     = flag.String("data", "", "LIBSVM-format training file (implies -sparse; overrides -n/-m)")
		save     = flag.String("save", "", "write the trained model to this file")
		stats    = flag.Bool("stats", false, "collect and print run counters (steps, writes, staleness, numerical health)")
		report   = flag.String("report", "", "write a JSON run report to this file (implies -stats)")
		healthW  = flag.Bool("health-watch", false, "abort the run on numerical divergence (NaN/Inf loss, excessive saturation rate or rounding-bias drift)")
		httpAddr = flag.String("http", "", "serve /metrics (Prometheus), /debug/flight, /debug/dash, /debug/bundle and /debug/pprof on this address during the run")

		tracePath    = flag.String("trace", "", "write Chrome trace_event JSON of the run's phases to this file (Perfetto-loadable)")
		traceCap     = flag.Int("trace-capacity", 0, "trace ring capacity in spans (0 = default)")
		seriesPath   = flag.String("series", "", "write the windowed training time-series to this file (.csv for CSV, otherwise JSON)")
		seriesBudget = flag.Int("series-budget", 0, "time-series window budget (0 = default)")

		nodes     = flag.Int("nodes", 0, "simulated cluster size; >= 2 trains on a simulated multi-node interconnect (dense only)")
		proto     = flag.String("cluster-protocol", "", "cluster protocol: param-server or all-reduce (with -nodes; default param-server)")
		wireBits  = flag.Uint("wire-bits", 0, "gradient wire precision in bits: 4, 8, 16 or 32 (0 = the signature's C term; with -nodes)")
		staleComp = flag.Float64("staleness-comp", 0, "staleness compensation alpha: stale updates apply eta/(1+alpha*staleness) (with -nodes)")

		logFormat  = flag.String("log-format", "text", "structured log format: text or json")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		flightPath = flag.String("flight", "", "write the flight-recorder dump (recent structured events, JSON) here when the run fails; SIGQUIT dumps it to stderr any time")
		bundleDir  = flag.String("bundle-dir", ".", "write anomaly-triggered debug bundles (*.debugbundle.tar.gz: flight ring, trace, series, pprof profiles, stats, config) into this directory; empty disables")
		profDir    = flag.String("profile-dir", "", "continuously capture CPU/heap/goroutine/mutex pprof profiles into a bounded on-disk ring in this directory")
		profEvery  = flag.Duration("profile-interval", 0, "continuous profiler capture cadence (0 = default 30s; with -profile-dir)")

		ckptDir   = flag.String("checkpoint-dir", "", "supervise the run: checkpoint here, resume and retry on failure")
		ckptEvery = flag.Int("checkpoint-every", 1, "checkpoint period in epochs (with -checkpoint-dir)")
		retries   = flag.Int("retries", 3, "max retries after crashes or detected stalls (with -checkpoint-dir)")
		faultSpec = flag.String("fault", "", "deterministic fault schedule, e.g. crash@step=1500,stall@step=900,corrupt@ckpt=1 (with -checkpoint-dir)")
		stallTO   = flag.Duration("stall-timeout", 0, "cancel and retry an attempt with no progress for this long, e.g. 30s (with -checkpoint-dir)")
	)
	flag.Parse()

	rec := buckwild.NewFlightRecorder(0)
	logger := buildLogger(*logFormat, *logLevel, rec)
	watchSIGQUIT(rec)
	if *flightPath != "" {
		flightDump = func() {
			if err := rec.DumpFile(*flightPath); err != nil {
				log.Printf("flight dump: %v", err)
				return
			}
			log.Printf("flight recorder dumped to %s (%d events)", *flightPath, rec.EventCount())
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The health watchdog stops a diverging run by cancelling this cause
	// context; the training call then returns the diagnostic error.
	var healthCancel context.CancelCauseFunc
	if *healthW {
		ctx, healthCancel = context.WithCancelCause(ctx)
	}

	eta := *step
	if eta == 0 {
		eta = 6 / float64(*n)
		if *sparse {
			eta = 6 / (*density * float64(*n))
		}
	}

	cfg := buckwild.Config{
		Signature:      *sig,
		Problem:        buckwild.Problem(*problem),
		Rounding:       buckwild.Rounding(*rounding),
		GenericKernels: *generic,
		Locked:         *locked,
		Threads:        *threads,
		MiniBatch:      *batch,
		StepSize:       float32(eta),
		StepDecay:      float32(*decay),
		Epochs:         *epochs,
		Seed:           *seed,
		NumHealth:      *stats || *report != "" || *healthW || *httpAddr != "",
		Logger:         logger,
		Flight:         rec,
		Context:        ctx,
		Cluster: buckwild.ClusterConfig{
			Nodes:          *nodes,
			Protocol:       buckwild.ClusterProtocol(*proto),
			WireBits:       *wireBits,
			ErrorFeedback:  true,
			BatchPerNode:   *batch,
			StalenessAlpha: *staleComp,
		},
	}
	if *tracePath != "" {
		cfg.Tracer = buckwild.NewTracer(*traceCap)
	}
	if *seriesPath != "" || *report != "" || *httpAddr != "" || *bundleDir != "" {
		// -http and -bundle-dir imply a live time-series: the /debug/dash
		// charts and a debug bundle's series section need the windowed data
		// even when no -series file was asked for — and bundles are on by
		// default, so a bare run carries the series at its default budget.
		cfg.TimeSeries = buckwild.NewSeries(*seriesBudget)
	}
	var clusterLive *buckwild.ClusterMetrics
	if *httpAddr != "" && *nodes >= 2 {
		clusterLive = &buckwild.ClusterMetrics{}
		cfg.Cluster.LiveMetrics = clusterLive
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
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
	var bundler *buckwild.Bundler
	if *bundleDir != "" {
		var err error
		bundler, err = buckwild.NewBundler(buckwild.BundleConfig{
			Dir: *bundleDir, Flight: rec, Tracer: cfg.Tracer,
			Series: cfg.TimeSeries, Profiler: profiler, Logger: logger,
		})
		if err != nil {
			fatal(err)
		}
		bundler.AddSection("config", resolvedFlags)
		if clusterLive != nil {
			bundler.AddSection("stats/cluster", func() any { return clusterLive.Snapshot() })
		}
		cfg.Bundle = bundler
	}

	supervised := *ckptDir != ""
	if *nodes >= 2 && supervised {
		fatal(fmt.Errorf("-checkpoint-dir does not support cluster runs (drop -nodes or the checkpoint dir)"))
	}
	var plan *buckwild.FaultPlan
	if *faultSpec != "" {
		if !supervised {
			fatal(fmt.Errorf("-fault requires -checkpoint-dir (faults are injected into supervised runs)"))
		}
		var err error
		plan, err = buckwild.ParseFaultPlan(*faultSpec)
		if err != nil {
			fatal(err)
		}
	}
	rc := buckwild.RunConfig{
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		MaxRetries:      *retries,
		StallTimeout:    *stallTO,
		Faults:          plan,
	}

	// The supervised and bare paths return the same Result; the
	// supervised one also yields the supervisor's report.
	var supRep *buckwild.RunReport
	trainDense := func(ds *buckwild.DenseDataset) (*buckwild.Result, error) {
		if !supervised {
			return buckwild.Train(cfg, ds)
		}
		rep, err := buckwild.RunDense(cfg, rc, ds)
		if err != nil {
			return nil, err
		}
		supRep = rep
		return rep.Result, nil
	}
	trainSparse := func(ds *buckwild.SparseDataset) (*buckwild.Result, error) {
		if !supervised {
			return buckwild.Train(cfg, ds)
		}
		rep, err := buckwild.RunSparse(cfg, rc, ds)
		if err != nil {
			return nil, err
		}
		supRep = rep
		return rep.Result, nil
	}

	var live *obs.LiveMetrics
	if *httpAddr != "" {
		live = &obs.LiveMetrics{Series: cfg.TimeSeries, Cluster: clusterLive}
		cfg.Hooks = live
		dash := buckwild.NewDash(buckwild.DashConfig{
			Series:  cfg.TimeSeries,
			Cluster: clusterLive.Snapshot,
		})
		extra := map[string]http.Handler{
			"/debug/flight":      rec,
			"/debug/dash":        dash,
			"/debug/dash/events": http.HandlerFunc(dash.Events),
		}
		if bundler != nil {
			extra["/debug/bundle"] = bundler
		}
		srv, err := obs.ServeDebug(*httpAddr, live, extra)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("live metrics on http://%s/metrics, dashboard on /debug/dash, debug endpoints on /debug/flight, /debug/bundle and /debug/pprof\n", srv.Addr)
	}
	if *healthW {
		// The watchdog wraps whatever hooks are already installed (live
		// metrics included) so it adds detection without hiding them, and
		// triggers a debug bundle the moment it trips.
		cfg.Hooks = &buckwild.HealthWatchdog{Cancel: healthCancel, Bundle: bundler, Next: cfg.Hooks}
	}
	if (*stats || *report != "") && cfg.Hooks == nil {
		// Result.Stats is wanted but no live consumer is installed; the
		// nop hook alone switches the engine's counters on.
		cfg.Hooks = buckwild.NopHooks{}
	}

	var res *buckwild.Result
	if *data != "" {
		ds, err := buckwild.LoadLibSVM(*data, *sig)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %d examples, %d features from %s\n", ds.Len(), ds.N, *data)
		if *step == 0 {
			avgNNZ := float64(ds.NNZ()) / float64(ds.Len())
			cfg.StepSize = float32(6 / avgNNZ)
		}
		res, err = trainSparse(ds)
		if err != nil {
			fatal(err)
		}
	} else if *sparse {
		ds, err := buckwild.GenerateSparse(*sig, *n, *m, *density, *seed)
		if err != nil {
			fatal(err)
		}
		res, err = trainSparse(ds)
		if err != nil {
			fatal(err)
		}
	} else {
		ds, err := buckwild.GenerateDense(*sig, *n, *m, *seed)
		if err != nil {
			fatal(err)
		}
		res, err = trainDense(ds)
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("signature %s, %s, %d threads, B=%d, %s rounding\n",
		*sig, *problem, *threads, *batch, *rounding)
	fmt.Printf("%-8s%s\n", "epoch", "train loss")
	for e, l := range res.TrainLoss {
		fmt.Printf("%-8d%.6f\n", e, l)
	}
	if c := res.Cluster; c != nil {
		fmt.Printf("\n%d updates in %.4f simulated seconds (%.3g examples/sim-s)\n",
			res.Steps, c.SimSeconds, c.ExamplesPerSimSec)
		fmt.Printf("cluster: %d nodes, %s protocol, C%d wire\n", c.Nodes, c.Protocol, c.WireBits)
		fmt.Printf("  %d messages (%d gradient pushes, %d model pulls): %d wire bytes = %d header + %d gradient + %d model\n",
			c.Messages, c.GradPushes, c.ModelPulls,
			c.WireBytes, c.HeaderBytes, c.GradBytes, c.ModelBytes)
		fmt.Printf("  simulated compute %.4fs, comm %.4fs, %.4fs hidden by overlap\n",
			c.ComputeSeconds, c.CommSeconds, c.OverlapSavedSeconds)
		fmt.Printf("  update staleness: mean %.2f, p99 %.0f, max %d; %d compensated updates\n",
			c.Staleness.Mean(), c.Staleness.Quantile(0.99), c.Staleness.Max, c.CompensatedUpdates)
		for _, nd := range c.PerNode {
			fmt.Printf("  node %d: %d updates, %d wire bytes, compute %.4fs, comm %.4fs, staleness p50 %.0f p99 %.0f\n",
				nd.Node, nd.Updates, nd.WireBytes, nd.ComputeSeconds, nd.CommSeconds,
				nd.StalenessP50, nd.StalenessP99)
		}
	} else {
		fmt.Printf("\n%d updates in %v (%.1f M numbers/s on this host)\n",
			res.Steps, res.Elapsed.Round(1e6), res.NumbersPerSec/1e6)
	}

	if live != nil {
		var sup *buckwild.SupervisorStats
		if supRep != nil {
			sup = &supRep.Stats
		}
		live.SetFinal(res.Stats, sup)
	}
	if *tracePath != "" {
		if err := cfg.Tracer.WriteTraceFile(*tracePath); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (%d spans recorded; load in chrome://tracing or ui.perfetto.dev)\n",
			*tracePath, cfg.Tracer.SpanCount())
	}
	if *seriesPath != "" && res.Series != nil {
		if err := writeSeries(*seriesPath, res.Series); err != nil {
			fatal(err)
		}
		fmt.Printf("time-series written to %s (%d windows of %d epochs)\n",
			*seriesPath, len(res.Series.Windows), res.Series.EpochsPerWindow)
	}
	if win := res.Series.Final(); win != nil {
		fmt.Printf("final window: epochs (%d,%d], %.0f steps/s, loss %.6f, staleness mean %.2f\n",
			win.StartEpoch, win.EndEpoch, win.StepsPerSec, win.Loss, win.Staleness.Mean())
	}

	if res.Stats != nil {
		s := res.Stats
		fmt.Printf("run counters: %d steps, %d mutex waits, %d batch flushes\n",
			s.Steps, s.MutexWaits, s.BatchFlushes)
		for kind, n := range s.ModelWrites {
			fmt.Printf("  model writes (%s): %d\n", kind, n)
		}
		fmt.Printf("  staleness over %d sampled steps: mean %.2f, p50 %.0f, p99 %.0f, max %d writes\n",
			s.Staleness.Count, s.Staleness.Mean(), s.Staleness.Quantile(0.5),
			s.Staleness.Quantile(0.99), s.Staleness.Max)
	}
	if h := res.NumStats; h != nil {
		fmt.Printf("numerical health: %d saturations, %d underflows, rounding bias %+.4g quanta over %d writes (%s)\n",
			h.Saturations, h.Underflows, h.Bias.MeanQuanta(), h.Bias.Samples, h.Bias.Mode)
		sites := make([]string, 0, len(h.SatBySite))
		for site := range h.SatBySite {
			sites = append(sites, site)
		}
		sort.Strings(sites)
		for _, site := range sites {
			fmt.Printf("  saturations at %s: %d\n", site, h.SatBySite[site])
		}
		if w := h.Weights; w != nil {
			fmt.Printf("  weights (epoch %d): range [%.4g, %.4g], mean %.4g, %d at format bounds",
				w.Epoch, w.Min, w.Max, w.Mean, w.AtBounds)
			if w.NonFinite > 0 {
				fmt.Printf(", %d non-finite", w.NonFinite)
			}
			fmt.Println()
		}
	}
	if supRep != nil {
		s := supRep.Stats
		fmt.Printf("supervisor: %d attempts (%d retries), %d checkpoints (%d bytes), %d resumes\n",
			s.Attempts, s.Retries, s.Checkpoints, s.CheckpointBytes, s.Resumes)
		if s.InjectedCrashes+s.InjectedStalls+s.CorruptedCheckpoints > 0 {
			fmt.Printf("  injected faults: %d crashes, %d stalls, %d corrupted checkpoint writes\n",
				s.InjectedCrashes, s.InjectedStalls, s.CorruptedCheckpoints)
		}
		if s.CheckpointFallbacks > 0 {
			fmt.Printf("  checkpoint fallbacks past corrupt files: %d\n", s.CheckpointFallbacks)
		}
		if s.StallsDetected > 0 {
			fmt.Printf("  stalls detected: %d, degradations: %d (final threads %d)\n",
				s.StallsDetected, s.Degradations, s.FinalThreads)
		}
		fmt.Printf("  newest checkpoint: %s\n", supRep.Checkpoint)
	}
	if *report != "" {
		out := struct {
			Signature    string                    `json:"signature"`
			Problem      string                    `json:"problem"`
			Rounding     string                    `json:"rounding"`
			Threads      int                       `json:"threads"`
			MiniBatch    int                       `json:"mini_batch"`
			Epochs       int                       `json:"epochs"`
			TrainLoss    []float64                 `json:"train_loss"`
			Stats        *buckwild.RunStats        `json:"stats"`
			StalenessP50 float64                   `json:"staleness_p50"`
			StalenessP99 float64                   `json:"staleness_p99"`
			Series       *buckwild.SeriesSnapshot  `json:"series,omitempty"`
			Cluster      *buckwild.ClusterStats    `json:"cluster,omitempty"`
			Supervisor   *buckwild.SupervisorStats `json:"supervisor,omitempty"`
			Checkpoint   string                    `json:"checkpoint,omitempty"`
		}{Signature: *sig, Problem: cfg.Problem.String(), Rounding: *rounding,
			Threads: *threads, MiniBatch: *batch, Epochs: *epochs,
			TrainLoss: res.TrainLoss, Stats: res.Stats, Series: res.Series,
			Cluster: res.Cluster}
		if res.Stats != nil {
			out.StalenessP50 = res.Stats.Staleness.Quantile(0.5)
			out.StalenessP99 = res.Stats.Staleness.Quantile(0.99)
		}
		if supRep != nil {
			out.Supervisor = &supRep.Stats
			out.Checkpoint = supRep.Checkpoint
		}
		if err := obs.WriteJSON(*report, out); err != nil {
			fatal(err)
		}
		fmt.Printf("run report written to %s\n", *report)
	}

	if *save != "" {
		if err := buckwild.SaveModelFile(*save, *sig, res.W); err != nil {
			fatal(err)
		}
		fmt.Printf("model saved to %s\n", *save)
	}

	if *predict {
		parsed, err := buckwild.ParseSignature(*sig)
		if err == nil {
			if gnps, err := buckwild.PredictThroughput(parsed, *n, *threads); err == nil {
				fmt.Printf("performance model (paper Table 2 base): %.3f GNPS on the reference Xeon\n", gnps)
			}
		}
	}
}
