package run

import (
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"buckwild/internal/obs"
)

// orderedRecorder timestamps every lifecycle callback with one shared
// sequence counter, so ordering across the epoch/checkpoint/retry
// streams can be asserted. OnEpoch fires on the coordinating goroutine
// and the lifecycle callbacks on the supervisor goroutine, but never
// concurrently; the mutex keeps the recorder race-clean anyway, since
// this test runs under -race in CI.
type orderedRecorder struct {
	obs.NopHooks
	mu     sync.Mutex
	events []lifeEvent
}

type lifeEvent struct {
	kind  string // "epoch", "checkpoint", "retry"
	epoch int    // completed epochs (checkpoint/epoch) or resume epoch (retry)
}

func (r *orderedRecorder) add(kind string, epoch int) {
	r.mu.Lock()
	r.events = append(r.events, lifeEvent{kind, epoch})
	r.mu.Unlock()
}

func (r *orderedRecorder) OnEpoch(ei obs.EpochInfo) {
	r.add("epoch", ei.Epoch)
}
func (r *orderedRecorder) OnCheckpoint(ci obs.CheckpointInfo) {
	r.add("checkpoint", ci.Epoch)
}
func (r *orderedRecorder) OnRetry(ri obs.RetryInfo) {
	r.add("retry", ri.ResumeEpoch)
}

// TestLifecycleHooksOrderingUnderRetries drives a run through two
// injected crashes and asserts the callback interleaving the docs
// promise: every checkpoint callback follows the epoch it captures,
// every retry follows the checkpoint it will resume from, and the epoch
// stream restarts exactly at the resume point after each retry.
func TestLifecycleHooksOrderingUnderRetries(t *testing.T) {
	ds := testDense(t)
	// testDense has 120 examples, so one epoch is 120 steps. Crashes at
	// steps 250 (epoch 2 of attempt 1) and 150 (epoch 1 of attempt 2,
	// whose counter restarts at the resume) force two retries.
	plan, err := ParsePlan("crash@step=250,crash@step=150")
	if err != nil {
		t.Fatal(err)
	}
	rec := &orderedRecorder{}
	rep, err := Train(context.Background(), Config{
		Dir:      t.TempDir(),
		Faults:   plan,
		Observer: obs.Observer{Hooks: rec},
		sleep:    noSleep,
	}, testTrainConfig(6), ds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Attempts != 3 || rep.Stats.Retries != 2 {
		t.Fatalf("stats %+v, want 3 attempts / 2 retries", rep.Stats)
	}

	lastEpoch, lastCheckpoint := 0, -1
	resumed := -1 // resume point of the most recent retry, -1 outside one
	var retries, checkpoints int
	for i, ev := range rec.events {
		switch ev.kind {
		case "epoch":
			if resumed >= 0 {
				if ev.epoch != resumed+1 {
					t.Fatalf("event %d: first epoch after retry is %d, want resume %d + 1", i, ev.epoch, resumed)
				}
				resumed = -1
			} else if ev.epoch != lastEpoch+1 {
				t.Fatalf("event %d: epoch %d follows epoch %d", i, ev.epoch, lastEpoch)
			}
			lastEpoch = ev.epoch
		case "checkpoint":
			checkpoints++
			// A checkpoint callback always trails the OnEpoch of the epoch
			// it captured.
			if ev.epoch != lastEpoch {
				t.Fatalf("event %d: checkpoint of epoch %d arrived while the epoch stream is at %d", i, ev.epoch, lastEpoch)
			}
			lastCheckpoint = ev.epoch
		case "retry":
			retries++
			// The resume epoch must be a checkpoint the run actually wrote —
			// the newest one.
			if ev.epoch != lastCheckpoint {
				t.Fatalf("event %d: retry resumes from %d but newest checkpoint is %d", i, ev.epoch, lastCheckpoint)
			}
			resumed = ev.epoch
		}
	}
	if retries != 2 {
		t.Fatalf("saw %d retry events, want 2", retries)
	}
	if checkpoints != rep.Stats.Checkpoints {
		t.Fatalf("saw %d checkpoint events, stats say %d", checkpoints, rep.Stats.Checkpoints)
	}
	if last := rec.events[len(rec.events)-1]; last.kind != "checkpoint" || last.epoch != 6 {
		t.Fatalf("run should end with the final epoch's checkpoint, got %+v", last)
	}
}

// TestSupervisorEventsLogged: every supervisor transition is one log
// record with an event attribute, so a ring fed by the logger holds each
// once, in order. A crash at step 250 (epoch 3) resumes from the epoch-2
// checkpoint.
func TestSupervisorEventsLogged(t *testing.T) {
	ds := testDense(t)
	plan, err := ParsePlan("crash@step=250")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder(0)
	_, err = Train(context.Background(), Config{
		Dir:    t.TempDir(),
		Faults: plan,
		Logger: obs.Component(slog.New(rec.LogHandler(nil)), "run"),
		sleep:  noSleep,
	}, testTrainConfig(4), ds)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range rec.Snapshot().Events {
		if ev.Component != "run" {
			t.Errorf("event without the run component: %+v", ev)
		}
		got = append(got, ev.Kind+"@"+ev.Fields["epoch"]+ev.Fields["resume_epoch"])
	}
	want := "checkpoint@1 checkpoint@2 resume@2 retry@2 checkpoint@3 checkpoint@4"
	if strings.Join(got, " ") != want {
		t.Errorf("ring events = %v, want %s", got, want)
	}
}

// TestSupervisedRunTraceSpans pins the trace a fault-injected supervised
// run must produce: spans for every attempt, every checkpoint save, a
// resume that found a checkpoint, the backoff wait, and instants for the
// injected fault and the retry decision.
func TestSupervisedRunTraceSpans(t *testing.T) {
	ds := testDense(t)
	plan, err := ParsePlan("crash@step=250")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(256)
	rep, err := Train(context.Background(), Config{
		Dir:      t.TempDir(),
		Faults:   plan,
		Observer: obs.Observer{Tracer: tr},
		sleep:    noSleep,
	}, testTrainConfig(4), ds)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	foundResume := false
	spans := tr.Snapshot().Spans
	var failed obs.Span
	for _, s := range spans {
		counts[s.Cat+"/"+s.Name]++
		if s.Cat == "run" && s.Name == "resume" && s.Args["found"] == "true" {
			foundResume = true
		}
		if s.Cat == "run" && s.Name == "attempt" && s.Args["error"] != "" {
			failed = s
		}
	}
	// A span records nothing until it ends, so the engine has to end its
	// spans on the failure path too: the crashed attempt must contain its
	// train-dense span and the epoch the crash interrupted, both carrying
	// the error.
	inFailed := map[string]int{}
	for _, s := range spans {
		if s.Cat == "core" && s.Args["error"] != "" && s.Start >= failed.Start && s.Start+s.Dur <= failed.Start+failed.Dur {
			inFailed[s.Name]++
		}
	}
	if inFailed["train-dense"] != 1 || inFailed["epoch"] != 1 {
		t.Errorf("failed attempt %+v contains engine spans %v, want one train-dense and one epoch", failed, inFailed)
	}
	if got := counts["run/attempt"]; got != rep.Stats.Attempts {
		t.Errorf("%d attempt spans, stats say %d attempts", got, rep.Stats.Attempts)
	}
	if got := counts["run/checkpoint-save"]; got != rep.Stats.Checkpoints {
		t.Errorf("%d checkpoint-save spans, stats say %d checkpoints", got, rep.Stats.Checkpoints)
	}
	if !foundResume {
		t.Error("no resume span with found=true; the retry should have resumed from a checkpoint")
	}
	for _, want := range []string{"run/fault-crash", "run/retry", "run/backoff"} {
		if counts[want] == 0 {
			t.Errorf("no %s span recorded; trace: %v", want, counts)
		}
	}
	// The engine's epoch spans ride the same tracer via the attempt
	// observer: 2 epochs before the crash aborts the third, 3 after the
	// resume... at minimum the job's 4 epochs complete.
	if counts["core/epoch"] < 4 {
		t.Errorf("%d epoch spans, want >= 4; trace: %v", counts["core/epoch"], counts)
	}
	if errors.Is(err, ErrInjectedCrash) {
		t.Error("run should have recovered from the injected crash")
	}
}
