// Package run is the robustness layer between "one Train call" and "a
// job that survives the hardware": a training-run supervisor that wraps
// the internal/core engine with periodic checkpointing, automatic
// resume-from-latest-checkpoint with bounded retries and exponential
// backoff, graceful degradation after repeated worker stalls, and a
// deterministic fault-injection schedule so every recovery path is
// testable in CI.
//
// The paper's thesis is that asynchronous low-precision SGD keeps
// converging under adversity — stale reads, racy writes, an obstinate
// cache. This package extends that adversity model up one level: a
// worker crash or a corrupted checkpoint write must cost at most the
// epochs since the last checkpoint, never the run. Because every worker
// PRNG stream is derived from (seed, worker, epoch), a run resumed at an
// epoch boundary replays exactly the updates an uninterrupted run would
// have performed, so recovery is not just safe but deterministic.
package run

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"buckwild/internal/kernels"
)

// Checkpoint is the durable state of a training run at an epoch
// boundary: enough to restart the run as if it had never stopped.
//
// The model is checkpointed at its own storage precision — an I8 model
// costs one byte per weight on disk, the low-precision counterpart of
// the engine's low-precision memory traffic. Dequantizing on load and
// re-quantizing with nearest rounding round-trips bit-exactly, because
// dequantized fixed-point values are exactly representable in float32.
type Checkpoint struct {
	// Epoch is the cumulative number of completed epochs.
	Epoch int
	// Seed is the run's base PRNG seed. Together with Epoch it pins
	// every per-(worker, epoch) PRNG stream the engine derives, so this
	// pair is the complete PRNG state at an epoch boundary.
	Seed uint64
	// Threads is the worker count in effect when the checkpoint was
	// written (lower than configured after graceful degradation).
	Threads int
	// Prec names the model storage precision in DMGC notation ("32f",
	// "16", "8", "4"); exactly one of WF/W16/W8 is non-nil accordingly
	// (I4 nibbles live in W8, like kernels.Vec).
	Prec string
	WF   []float32
	W16  []int16
	W8   []int8
	// TrainLoss is the complete loss trajectory from epoch 0 through
	// Epoch, stitched across restarts.
	TrainLoss []float64
}

// newCheckpoint snapshots a live model vector (copying its storage) into
// a checkpoint.
func newCheckpoint(epoch int, seed uint64, threads int, w kernels.Vec, loss []float64) *Checkpoint {
	ck := &Checkpoint{Epoch: epoch, Seed: seed, Threads: threads, Prec: w.P.String(), TrainLoss: loss}
	switch w.P {
	case kernels.F32:
		ck.WF = append([]float32(nil), w.F32...)
	case kernels.I16:
		ck.W16 = append([]int16(nil), w.I16...)
	default:
		ck.W8 = append([]int8(nil), w.I8...)
	}
	return ck
}

// Weights dequantizes the checkpointed model into the float32 form the
// engine's resume path (core.Config.InitWeights) takes.
func (ck *Checkpoint) Weights() ([]float32, error) {
	p, err := kernels.ParsePrec(ck.Prec)
	if err != nil {
		return nil, fmt.Errorf("run: checkpoint precision: %w", err)
	}
	switch p {
	case kernels.F32:
		if ck.WF == nil {
			return nil, fmt.Errorf("run: checkpoint claims %s but has no float payload", ck.Prec)
		}
		return append([]float32(nil), ck.WF...), nil
	case kernels.I16:
		if ck.W16 == nil {
			return nil, fmt.Errorf("run: checkpoint claims %s but has no int16 payload", ck.Prec)
		}
		f := p.Fixed()
		out := make([]float32, len(ck.W16))
		for i, v := range ck.W16 {
			out[i] = f.Dequantize(int32(v))
		}
		return out, nil
	default: // I8, I4
		if ck.W8 == nil {
			return nil, fmt.Errorf("run: checkpoint claims %s but has no int8 payload", ck.Prec)
		}
		f := p.Fixed()
		out := make([]float32, len(ck.W8))
		for i, v := range ck.W8 {
			out[i] = f.Dequantize(int32(v))
		}
		return out, nil
	}
}

// Checkpoint files use the shared frame (see EncodeFrame) under their own
// magic. The CRC is what makes the corrupt-write fault injectable and
// torn writes detectable: LoadLatest verifies it and falls back to the
// previous checkpoint on mismatch.
var ckptMagic = [4]byte{0xBF, 'B', 'K', 'P'}

const (
	ckptVersion = 1
	ckptPrefix  = "ckpt-"
	ckptSuffix  = ".bkcp"
)

// ckptPath names the checkpoint file for an epoch; zero-padding keeps
// lexicographic and numeric order identical.
func ckptPath(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", ckptPrefix, epoch, ckptSuffix))
}

// writeCheckpoint atomically writes ck into dir: the frame goes to a
// temporary file in the same directory, is synced, and is renamed to its
// final name, so readers never observe a partial checkpoint. It returns
// the final path and the file size. When corrupt is set (the corrupt-write
// fault), one payload byte is flipped after framing, producing exactly
// the torn-write artifact the loader must survive.
func writeCheckpoint(dir string, ck *Checkpoint, corrupt bool) (string, int64, error) {
	frame, err := EncodeFrame(ckptMagic, ckptVersion, ck)
	if err != nil {
		return "", 0, fmt.Errorf("run: encoding checkpoint: %w", err)
	}
	if p := frame[frameHeader:]; corrupt && len(p) > 0 {
		p[len(p)/2] ^= 0xFF
	}

	tmp, err := os.CreateTemp(dir, ".tmp-"+ckptPrefix+"*")
	if err != nil {
		return "", 0, fmt.Errorf("run: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(frame); err != nil {
		tmp.Close()
		return "", 0, fmt.Errorf("run: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", 0, fmt.Errorf("run: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", 0, fmt.Errorf("run: closing checkpoint: %w", err)
	}
	path := ckptPath(dir, ck.Epoch)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", 0, fmt.Errorf("run: publishing checkpoint: %w", err)
	}
	return path, int64(len(frame)), nil
}

// ReadCheckpoint reads and validates one checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	defer f.Close()
	var ck Checkpoint
	if err := DecodeFrame(f, ckptMagic, ckptVersion, "checkpoint", &ck); err != nil {
		return nil, fmt.Errorf("run: %s: %w", path, err)
	}
	return &ck, nil
}

// listCheckpoints returns the checkpoint files in dir, oldest first.
func listCheckpoints(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ckptSuffix) {
			names = append(names, filepath.Join(dir, name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// LoadLatest loads the newest valid checkpoint in dir, skipping (and
// counting) corrupt or unreadable ones — the fallback that makes a
// corrupted write cost one checkpoint interval instead of the run. It
// returns (nil, "", skipped, nil) when no valid checkpoint exists; the
// error is reserved for the directory itself being unreadable.
func LoadLatest(dir string) (ck *Checkpoint, path string, skipped int, err error) {
	names, err := listCheckpoints(dir)
	if err != nil {
		return nil, "", 0, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		ck, err := ReadCheckpoint(names[i])
		if err != nil {
			skipped++
			continue
		}
		return ck, names[i], skipped, nil
	}
	return nil, "", skipped, nil
}

// pruneCheckpoints removes all but the newest keepCheckpoints files, so a
// checkpoint corrupted on disk still leaves a fallback.
func pruneCheckpoints(dir string) {
	names, err := listCheckpoints(dir)
	if err != nil || len(names) <= keepCheckpoints {
		return
	}
	for _, name := range names[:len(names)-keepCheckpoints] {
		os.Remove(name)
	}
}
