package obs

import "time"

// This file holds the observability vocabulary of the run supervisor
// (internal/run): the lifecycle callback payloads and the counter snapshot
// a supervised, fault-tolerant run reports. It lives here rather than in
// internal/run so that exporters, the commands' -report documents and the
// facade all speak one observability schema.

// CheckpointInfo describes one checkpoint written to disk.
type CheckpointInfo struct {
	// Epoch is the cumulative number of completed epochs the checkpoint
	// captures.
	Epoch int
	// Path is the checkpoint file's final (post-rename) location.
	Path string
	// Bytes is the file size.
	Bytes int64
}

// RetryInfo describes one supervisor retry decision.
type RetryInfo struct {
	// Attempt numbers the attempt that just failed (1-based).
	Attempt int
	// Err is the failure that triggered the retry.
	Err error
	// Backoff is the delay before the next attempt starts.
	Backoff time.Duration
	// ResumeEpoch is the epoch the next attempt resumes from (0 when no
	// usable checkpoint exists).
	ResumeEpoch int
	// Threads is the worker count the next attempt will run with (lower
	// than the configured count after graceful degradation).
	Threads int
}

// SupervisorStats is the counter snapshot of one supervised run: what the
// retry/checkpoint/fault machinery did around the training attempts. The
// commands' -report documents embed it next to RunStats.
type SupervisorStats struct {
	// Attempts counts training attempts, including the successful one.
	Attempts int `json:"attempts"`
	// Retries counts attempts that were retried after a recoverable
	// failure (Attempts - 1 on a run that eventually succeeds).
	Retries int `json:"retries"`
	// Checkpoints counts checkpoint files written; CheckpointBytes is
	// their cumulative size.
	Checkpoints     int   `json:"checkpoints"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// Resumes counts attempts that started from a checkpoint instead of
	// from scratch; ResumedEpoch is the last resume point.
	Resumes      int `json:"resumes"`
	ResumedEpoch int `json:"resumed_epoch,omitempty"`
	// InjectedCrashes, InjectedStalls and CorruptedCheckpoints count
	// faults the injection schedule fired.
	InjectedCrashes      int `json:"injected_crashes,omitempty"`
	InjectedStalls       int `json:"injected_stalls,omitempty"`
	CorruptedCheckpoints int `json:"corrupted_checkpoints,omitempty"`
	// CheckpointFallbacks counts corrupt or unreadable checkpoint files
	// the loader skipped while resuming (each one fell back to the next
	// older checkpoint).
	CheckpointFallbacks int `json:"checkpoint_fallbacks,omitempty"`
	// StallsDetected counts watchdog firings (injected or real);
	// Degradations counts worker-count reductions they triggered.
	StallsDetected int `json:"stalls_detected,omitempty"`
	Degradations   int `json:"degradations,omitempty"`
	// FinalThreads is the worker count of the last attempt (lower than
	// configured after degradation).
	FinalThreads int `json:"final_threads"`
}
