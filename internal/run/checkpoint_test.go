package run

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"buckwild/internal/kernels"
)

func mkCkpt(epoch int) *Checkpoint {
	return &Checkpoint{
		Epoch:     epoch,
		Seed:      42,
		Threads:   3,
		Prec:      "32f",
		WF:        []float32{0.5, -0.25, 1.5},
		TrainLoss: []float64{0.7, 0.6, 0.5},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := mkCkpt(4)
	path, n, err := writeCheckpoint(dir, want, false)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("reported size %d", n)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != n {
		t.Fatalf("stat %s: %v, size %v want %d", path, err, fi.Size(), n)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointLowPrecisionRoundTrip(t *testing.T) {
	// An I8 model checkpoints at one byte per weight, and the
	// dequantize/requantize cycle through core.Config.InitWeights must be
	// bit-exact.
	dir := t.TempDir()
	w := kernels.NewVec(kernels.I8, 5)
	f := kernels.I8.Fixed()
	vals := []float32{0.5, -0.25, 0, 1.25, -1}
	for i, x := range vals {
		w.SetRaw(i, f.QuantizeBiased(x))
	}
	ck := newCheckpoint(2, 7, 1, w, []float64{1, 0.9, 0.8})
	if ck.Prec != "8" || ck.W8 == nil || ck.WF != nil {
		t.Fatalf("I8 checkpoint stored as %q WF=%v W8=%v", ck.Prec, ck.WF, ck.W8)
	}
	if _, _, err := writeCheckpoint(dir, ck, false); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := LoadLatest(dir)
	if err != nil || got == nil {
		t.Fatalf("LoadLatest: %v, %v", got, err)
	}
	deq, err := got.Weights()
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range deq {
		if f.QuantizeBiased(x) != w.Raw(i) {
			t.Fatalf("weight %d: dequantized %v requantizes to %d, stored raw %d", i, x, f.QuantizeBiased(x), w.Raw(i))
		}
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path, _, err := writeCheckpoint(dir, mkCkpt(1), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupt checkpoint read: %v, want CRC mismatch", err)
	}
}

func TestReadCheckpointRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "not-a-checkpoint")
	if err := os.WriteFile(bad, []byte("plain text, definitely not a frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "not a checkpoint") {
		t.Fatalf("garbage read: %v", err)
	}
	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, ckptMagic[:], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(short); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated read: %v", err)
	}
}

func TestLoadLatestFallsBackPastCorrupt(t *testing.T) {
	dir := t.TempDir()
	for epoch := 1; epoch <= 2; epoch++ {
		if _, _, err := writeCheckpoint(dir, mkCkpt(epoch), false); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := writeCheckpoint(dir, mkCkpt(3), true); err != nil {
		t.Fatal(err)
	}
	ck, path, skipped, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Epoch != 2 || skipped != 1 {
		t.Fatalf("got epoch %v (skipped %d, path %s), want epoch 2 skipping 1", ck, skipped, path)
	}
}

func TestLoadLatestEmptyDir(t *testing.T) {
	ck, path, skipped, err := LoadLatest(t.TempDir())
	if ck != nil || path != "" || skipped != 0 || err != nil {
		t.Fatalf("empty dir: %v %q %d %v", ck, path, skipped, err)
	}
}

func TestPruneCheckpoints(t *testing.T) {
	dir := t.TempDir()
	for epoch := 1; epoch <= 5; epoch++ {
		if _, _, err := writeCheckpoint(dir, mkCkpt(epoch), false); err != nil {
			t.Fatal(err)
		}
	}
	pruneCheckpoints(dir)
	names, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{ckptPath(dir, 4), ckptPath(dir, 5)}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("after prune: %v, want %v", names, want)
	}
}

// TestCheckpointFramePinned pins the exact bytes of a checkpoint file, and
// of one written under the corrupt-write fault, from fixed inputs: the
// frame layout, the gob payload and the flipped byte's position.
func TestCheckpointFramePinned(t *testing.T) {
	for _, tc := range []struct {
		corrupt bool
		want    string
	}{
		{false, "628fbaa5c46f5dd2e40841d58016f15d22ce2b18958ee01e40d766b36a41a43d"},
		{true, "415c93509402b325174e753349f4e645ee9fb701a674a8f632140bf24c332be9"},
	} {
		path, _, err := writeCheckpoint(t.TempDir(), mkCkpt(4), tc.corrupt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.want {
			t.Errorf("corrupt=%v: checkpoint digest %s, want %s", tc.corrupt, got, tc.want)
		}
	}
}
