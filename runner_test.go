package buckwild

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDenseSupervised(t *testing.T) {
	ds, err := GenerateDense("D8M8", 16, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Signature: "D8M8", Epochs: 5, Seed: 21}

	base, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := ParseFaultPlan("crash@step=260")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunDense(cfg, RunConfig{CheckpointDir: t.TempDir(), Faults: plan}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.InjectedCrashes != 1 || rep.Stats.Retries != 1 || rep.Stats.Resumes != 1 {
		t.Fatalf("stats %+v, want one recovered crash", rep.Stats)
	}
	if got, want := rep.Result.TrainLoss[5], base.TrainLoss[5]; got != want {
		t.Fatalf("supervised final loss %v, bare %v", got, want)
	}
	if rep.Checkpoint == "" {
		t.Fatal("no checkpoint reported")
	}
	ck, _, _, err := LoadLatestCheckpoint(t.TempDir())
	if err != nil || ck != nil {
		t.Fatalf("empty dir should load nothing: %v, %v", ck, err)
	}
}

func TestRunSparseSupervised(t *testing.T) {
	ds, err := GenerateSparse("D8i16M8", 64, 100, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Signature: "D8i16M8", Epochs: 4, Seed: 5}
	rep, err := RunSparse(cfg, RunConfig{CheckpointDir: t.TempDir()}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Attempts != 1 || rep.Stats.Checkpoints != 4 {
		t.Fatalf("stats %+v", rep.Stats)
	}
	ck, _, _, err := LoadLatestCheckpoint(filepath.Dir(rep.Checkpoint))
	if err != nil || ck == nil || ck.Epoch != 4 {
		t.Fatalf("latest checkpoint %+v, %v", ck, err)
	}
}

func TestRunDenseContextCancel(t *testing.T) {
	ds, err := GenerateDense("D8M8", 16, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Signature: "D8M8", Epochs: 5, Context: cancelledCtx()}
	_, err = RunDense(cfg, RunConfig{CheckpointDir: t.TempDir()}, ds)
	assertFacadeCancel(t, err, context.Canceled)
}

func TestRunDenseGivesUp(t *testing.T) {
	ds, err := GenerateDense("D8M8", 16, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaultPlan("crash@step=5,crash@step=5")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunDense(Config{Signature: "D8M8", Epochs: 3},
		RunConfig{CheckpointDir: t.TempDir(), MaxRetries: 1, Backoff: 1}, ds)
	if err != nil {
		t.Fatalf("plan unused yet: %v", err)
	}
	_, err = RunDense(Config{Signature: "D8M8", Epochs: 3},
		RunConfig{CheckpointDir: t.TempDir(), MaxRetries: 1, Backoff: 1, Faults: plan}, ds)
	if err == nil || !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("exhausted retries returned %v", err)
	}
	if !strings.HasPrefix(err.Error(), "buckwild:") {
		t.Fatalf("error lacks facade prefix: %v", err)
	}
	if _, err := ParseFaultPlan("explode@step=1"); err == nil || !strings.HasPrefix(err.Error(), "buckwild:") {
		t.Fatalf("bad spec error: %v", err)
	}
}

// TestRunRejectsCluster checks that a supervised run refuses a cluster
// configuration instead of silently training on one machine.
func TestRunRejectsCluster(t *testing.T) {
	ds, err := GenerateDense("", 16, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Epochs: 1, Cluster: ClusterConfig{Nodes: 4}}
	rep, err := RunDense(cfg, RunConfig{CheckpointDir: t.TempDir()}, ds)
	if err == nil || !strings.HasPrefix(err.Error(), "buckwild:") || !strings.Contains(err.Error(), "cluster") {
		t.Fatalf("supervised cluster run: report %+v, error %v", rep, err)
	}
	// One node is no cluster, and trains.
	cfg.Cluster.Nodes = 1
	if _, err := RunDense(cfg, RunConfig{CheckpointDir: t.TempDir()}, ds); err != nil {
		t.Fatal(err)
	}
}
