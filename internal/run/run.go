package run

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync/atomic"
	"time"

	"buckwild/internal/core"
	"buckwild/internal/obs"
)

// The supervisor's fixed policy. It keeps the two newest checkpoints, so
// a corrupted newest one still leaves a fallback. The retry backoff
// doubles up to backoffCap. After degradeAfter consecutive stall failures
// a run restarts with one worker fewer, never below one.
const (
	keepCheckpoints = 2
	backoffCap      = 5 * time.Second
	degradeAfter    = 2
)

// Config configures the supervisor around one training job. Zero values
// select conservative defaults; only Dir is required.
type Config struct {
	// Dir is the checkpoint directory; it is created if missing. A run
	// started over a directory holding checkpoints from an earlier
	// process resumes from the newest valid one, which is what makes a
	// killed process recoverable.
	Dir string
	// Every is the checkpoint period in epochs (default 1). The final
	// epoch is always checkpointed.
	Every int
	// MaxRetries bounds how many times a failed attempt is retried
	// (default 3). Only crashes and detected stalls are retried;
	// configuration and I/O errors fail immediately.
	MaxRetries int
	// Backoff is the delay before the first retry (default 50ms); it
	// doubles per consecutive failure, capped at 5s.
	Backoff time.Duration
	// StallTimeout arms the watchdog: if no run progress (steps, epochs,
	// checkpoints) is observed for this long, the attempt is cancelled
	// with ErrStallDetected and retried. Zero disables the watchdog
	// unless the fault plan injects stalls, in which case it defaults to
	// 500ms. Choose a value comfortably above one epoch's duration.
	StallTimeout time.Duration
	// Faults is the deterministic fault-injection schedule; nil injects
	// nothing.
	Faults *Plan
	// Observer is installed in the engine of every attempt. Its Hooks
	// also receive the supervisor's OnCheckpoint and OnRetry; its
	// StepSample is forced to 1 while step faults are armed; its Tracer
	// also records the supervisor's lifecycle (attempts, checkpoint saves,
	// resume decisions, backoff waits), so epochs appear nested inside
	// their attempt; its Series spans the whole supervised run (the
	// recorder detects each attempt's counter restart and keeps
	// accumulating). With the zero value the engine runs bare unless step
	// faults or the stall watchdog need its callbacks; for counters alone
	// install obs.NopHooks{}.
	Observer obs.Observer
	// Logger, when non-nil, receives the supervisor's events, one record
	// each with an "event" attribute: resume, checkpoint, retry, degrade
	// and retries-exhausted. They reach a flight ring when the logger's
	// handler is the ring's LogHandler. Nil is silent at no cost.
	Logger *slog.Logger
	// Bundle, when non-nil, gets a debug bundle triggered when the stall
	// watchdog fires and when the supervisor exhausts its retries — the
	// full evidentiary record lands on disk before the error propagates.
	Bundle *obs.Bundler
	// Snapshot, when non-nil, receives a promotable copy of the model at
	// every checkpoint boundary, after the checkpoint file is durably on
	// disk — the serving tier's hot-promotion feed. The weights slice is
	// a fresh dequantized copy the receiver owns. Called on the training
	// run's coordinating goroutine, so a slow receiver delays training.
	Snapshot func(epoch int, loss float64, weights []float32)

	// sleep replaces time.Sleep for the backoff waits (tests inject a
	// no-op); nil uses time.Sleep.
	sleep func(time.Duration)
}

func (c *Config) fill() error {
	if c.Dir == "" {
		return fmt.Errorf("run: checkpoint directory required")
	}
	if c.Every < 1 {
		c.Every = 1
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.StallTimeout <= 0 && c.Faults.hasStalls() {
		c.StallTimeout = 500 * time.Millisecond
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	return nil
}

// Report is the outcome of a supervised run.
type Report struct {
	// Result is the final training result. Its TrainLoss covers the
	// whole job from epoch 0, stitched across restarts.
	Result *core.Result
	// Stats counts what the supervisor did around the attempts.
	Stats obs.SupervisorStats
	// Checkpoint is the newest checkpoint file on disk ("" if the run
	// never reached one).
	Checkpoint string
}

// Train supervises core.Train: checkpoints every cfg.Every epochs, resumes
// from the newest valid checkpoint after a crash or stall, retries with
// exponential backoff up to cfg.MaxRetries times, and degrades the worker
// count after repeated stalls. Cancelling ctx stops the run (mid-epoch)
// and is never retried; the latest checkpoint stays on disk for a later
// resume.
func Train(ctx context.Context, cfg Config, tc core.Config, ds core.Dataset) (*Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	epochs := tc.Epochs
	if epochs < 1 {
		epochs = 1
	}
	threads := tc.Threads
	if threads < 1 {
		threads = 1
	}

	inj := newInjector(cfg.Faults)
	tracer := cfg.Observer.Tracer
	var stats obs.SupervisorStats

	// Resume state: a previous process may have left checkpoints behind.
	var (
		startEpoch int
		initW      []float32
		history    []float64 // losses [0..startEpoch], from the checkpoint
		lastPath   string
	)
	loadResume := func() error {
		span := tracer.Begin("run", "resume", 0)
		ck, path, skipped, err := LoadLatest(cfg.Dir)
		stats.CheckpointFallbacks += skipped
		if err != nil {
			span.EndArgs(map[string]string{"error": err.Error()})
			return err
		}
		if ck == nil {
			startEpoch, initW, history = 0, nil, nil
			span.EndArgs(map[string]string{"found": "false"})
			return nil
		}
		span.EndArgs(map[string]string{"found": "true", "epoch": fmt.Sprint(ck.Epoch)})
		if ck.Epoch > epochs {
			return fmt.Errorf("run: checkpoint %s is at epoch %d, beyond the configured %d", path, ck.Epoch, epochs)
		}
		w, err := ck.Weights()
		if err != nil {
			return fmt.Errorf("%w (in %s)", err, path)
		}
		startEpoch, initW, history, lastPath = ck.Epoch, w, ck.TrainLoss, path
		stats.Resumes++
		stats.ResumedEpoch = ck.Epoch
		if cfg.Logger != nil {
			cfg.Logger.Info("resumed from checkpoint", slog.String("event", "resume"),
				slog.String("path", path), slog.Int("epoch", ck.Epoch))
		}
		return nil
	}
	if err := loadResume(); err != nil {
		return nil, err
	}

	backoff := cfg.Backoff
	stalls := 0
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		stats.Attempts++
		stats.FinalThreads = threads

		actx, cancel := context.WithCancelCause(ctx)
		var progress atomic.Uint64
		hooks := &attemptHooks{inner: cfg.Observer.Hooks, inj: inj, cancel: cancel, done: actx.Done(), progress: &progress, tracer: tracer}
		attemptSpan := tracer.Begin("run", "attempt", 0)

		run := tc
		run.Ctx = actx
		run.Threads = threads
		run.StartEpoch = startEpoch
		run.InitWeights = initW
		run.Observer = attemptObserver(&cfg, hooks)
		resumeHist := history
		run.EpochEnd = func(st core.EpochState) error {
			progress.Add(1)
			if st.Epoch%cfg.Every != 0 && st.Epoch != epochs {
				return nil
			}
			ckSpan := tracer.Begin("run", "checkpoint-save", 0)
			ck := newCheckpoint(st.Epoch, tc.Seed, threads, st.W, stitchLoss(resumeHist, st.TrainLoss))
			path, n, err := writeCheckpoint(cfg.Dir, ck, inj.corruptNextWrite())
			if err != nil {
				ckSpan.EndArgs(map[string]string{"error": err.Error()})
				return err
			}
			ckSpan.EndArgs(map[string]string{"epoch": fmt.Sprint(st.Epoch), "bytes": fmt.Sprint(n)})
			stats.Checkpoints++
			stats.CheckpointBytes += n
			lastPath = path
			if cfg.Logger != nil {
				cfg.Logger.Info("checkpoint saved", slog.String("event", "checkpoint"),
					slog.Int("epoch", st.Epoch), slog.Int64("bytes", n),
					slog.Float64("loss", st.Loss), slog.String("path", path))
			}
			pruneCheckpoints(cfg.Dir)
			if h := cfg.Observer.Hooks; h != nil {
				h.OnCheckpoint(obs.CheckpointInfo{Epoch: st.Epoch, Path: path, Bytes: n})
			}
			if cfg.Snapshot != nil {
				cfg.Snapshot(st.Epoch, st.Loss, st.W.Floats())
			}
			return nil
		}

		var dog *watchdog
		if cfg.StallTimeout > 0 {
			dog = startWatchdog(cancel, &progress, cfg.StallTimeout)
		}
		res, err := core.Train(run, ds)
		if dog != nil {
			dog.stop()
		}
		cancel(nil)
		attemptArgs := map[string]string{
			"attempt": fmt.Sprint(attempt), "threads": fmt.Sprint(threads),
			"start_epoch": fmt.Sprint(startEpoch),
		}
		if err != nil {
			attemptArgs["error"] = err.Error()
		}
		attemptSpan.EndArgs(attemptArgs)

		stats.InjectedCrashes = inj.firedCount(FaultCrash)
		stats.InjectedStalls = inj.firedCount(FaultStall)
		stats.CorruptedCheckpoints = inj.firedCount(FaultCorrupt)

		if err == nil {
			res.TrainLoss = stitchLoss(resumeHist, res.TrainLoss)
			return &Report{Result: res, Stats: stats, Checkpoint: lastPath}, nil
		}
		if ctx.Err() != nil {
			// The caller cancelled: propagate rather than retry. The
			// newest checkpoint stays on disk for a later resume.
			return nil, context.Cause(ctx)
		}

		switch {
		case errors.Is(err, ErrInjectedCrash):
			stalls = 0
		case errors.Is(err, ErrStallDetected):
			stats.StallsDetected++
			stalls++
			cfg.Bundle.Trigger("stall", fmt.Sprintf("attempt %d: %v", attempt, err))
			if stalls >= degradeAfter && threads > 1 {
				threads--
				stalls = 0
				stats.Degradations++
				if cfg.Logger != nil {
					cfg.Logger.Warn("degrading after repeated stalls", slog.String("event", "degrade"),
						slog.Int("threads", threads), slog.Int("attempt", attempt))
				}
			}
		default:
			// Configuration, dataset and I/O errors recur identically on
			// retry; fail fast.
			return nil, err
		}
		if attempt > cfg.MaxRetries {
			if cfg.Logger != nil {
				cfg.Logger.Error("retries exhausted", slog.String("event", "retries-exhausted"),
					slog.Int("attempts", attempt), slog.String("error", err.Error()))
			}
			cfg.Bundle.Trigger("retries-exhausted",
				fmt.Sprintf("giving up after %d attempts: %v", attempt, err))
			return nil, fmt.Errorf("run: giving up after %d attempts: %w", attempt, err)
		}
		stats.Retries++
		if err := loadResume(); err != nil {
			return nil, err
		}
		if cfg.Logger != nil {
			cfg.Logger.Warn("retrying after failed attempt", slog.String("event", "retry"),
				slog.Int("attempt", attempt), slog.String("error", err.Error()),
				slog.Duration("backoff", backoff), slog.Int("resume_epoch", startEpoch))
		}
		if h := cfg.Observer.Hooks; h != nil {
			h.OnRetry(obs.RetryInfo{
				Attempt: attempt, Err: err, Backoff: backoff,
				ResumeEpoch: startEpoch, Threads: threads,
			})
		}
		tracer.Instant("run", "retry", 0, map[string]string{
			"attempt": fmt.Sprint(attempt), "error": err.Error(),
			"resume_epoch": fmt.Sprint(startEpoch),
		})
		backoffSpan := tracer.Begin("run", "backoff", 0)
		cfg.sleep(backoff)
		backoffSpan.EndArgs(map[string]string{"backoff": backoff.String()})
		if backoff *= 2; backoff > backoffCap {
			backoff = backoffCap
		}
	}
}

// attemptObserver builds the engine Observer for one attempt: the
// caller's, with the supervisor's hooks in front when it needs the
// callbacks, or nil when nobody asked for anything — the zero-cost path.
func attemptObserver(cfg *Config, hooks *attemptHooks) *obs.Observer {
	o := cfg.Observer
	stepFaults := cfg.Faults.hasStepFaults()
	if o.Hooks != nil || stepFaults || cfg.StallTimeout > 0 {
		o.Hooks = hooks
		if stepFaults {
			// Step faults address individual model updates; sampling would
			// skip the scheduled one.
			o.StepSample = 1
		}
	} else if o.Tracer == nil && o.Series == nil && !o.NumHealth {
		return nil
	}
	return &o
}

// stitchLoss joins a checkpoint's loss history [0..resume] with an
// attempt's trajectory [resume..now] (whose first element repeats the
// resume-point loss).
func stitchLoss(history, attempt []float64) []float64 {
	if len(history) == 0 {
		return append([]float64(nil), attempt...)
	}
	out := append([]float64(nil), history...)
	if len(attempt) > 1 {
		out = append(out, attempt[1:]...)
	}
	return out
}

// attemptHooks wraps the user's hooks with the supervisor's machinery:
// the progress counter the watchdog monitors and the fault-injection
// sites. OnStep is called from worker goroutines; everything here is
// safe for concurrent use. The engine fires no lifecycle callbacks, so
// those stay the embedded no-ops.
type attemptHooks struct {
	obs.NopHooks
	inner    obs.Hooks
	inj      *injector
	cancel   context.CancelCauseFunc
	done     <-chan struct{}
	progress *atomic.Uint64
	tracer   *obs.Tracer
	steps    atomic.Uint64
}

func (h *attemptHooks) OnStep(si obs.StepInfo) {
	h.progress.Add(1)
	n := h.steps.Add(1)
	if f, ok := h.inj.fireAt(n); ok {
		h.tracer.Instant("run", "fault-"+f.Kind.String(), 0, map[string]string{"step": fmt.Sprint(n)})
		switch f.Kind {
		case FaultCrash:
			h.cancel(ErrInjectedCrash)
		case FaultStall:
			// Hang this worker until the attempt is torn down — the
			// watchdog must notice the missing progress.
			<-h.done
		}
	}
	if h.inner != nil {
		h.inner.OnStep(si)
	}
}

func (h *attemptHooks) OnEpoch(ei obs.EpochInfo) {
	h.progress.Add(1)
	if h.inner != nil {
		h.inner.OnEpoch(ei)
	}
}

func (h *attemptHooks) OnWorker(wi obs.WorkerInfo) {
	h.progress.Add(1)
	if h.inner != nil {
		h.inner.OnWorker(wi)
	}
}

// watchdog cancels an attempt when its progress counter stops moving for
// the configured timeout. Progress is anything the hooks or the
// checkpoint writer observe; once a worker hangs, the remaining workers
// drain their epoch ranges, the epoch join blocks, the counter freezes,
// and the watchdog fires.
type watchdog struct {
	quit chan struct{}
	done chan struct{}
}

func startWatchdog(cancel context.CancelCauseFunc, progress *atomic.Uint64, timeout time.Duration) *watchdog {
	w := &watchdog{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := timeout / 8
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		last := progress.Load()
		lastChange := time.Now()
		for {
			select {
			case <-w.quit:
				return
			case <-t.C:
				if cur := progress.Load(); cur != last {
					last, lastChange = cur, time.Now()
					continue
				}
				if time.Since(lastChange) >= timeout {
					cancel(ErrStallDetected)
					return
				}
			}
		}
	}()
	return w
}

func (w *watchdog) stop() {
	close(w.quit)
	<-w.done
}
