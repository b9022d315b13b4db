package buckwild

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// sameResult asserts two results are bit-identical in model and losses.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.W) != len(b.W) || len(a.TrainLoss) != len(b.TrainLoss) {
		t.Fatalf("%s: result shapes differ", label)
	}
	for j := range a.W {
		if a.W[j] != b.W[j] {
			t.Fatalf("%s: W[%d] = %v vs %v", label, j, a.W[j], b.W[j])
		}
	}
	for i := range a.TrainLoss {
		if a.TrainLoss[i] != b.TrainLoss[i] {
			t.Fatalf("%s: loss[%d] = %v vs %v", label, i, a.TrainLoss[i], b.TrainLoss[i])
		}
	}
	if a.Steps != b.Steps {
		t.Fatalf("%s: steps %d vs %d", label, a.Steps, b.Steps)
	}
}

// TestTrainUnifiesEntryPoints pins the one-entry-point contract: Train
// takes both dataset kinds, and a seeded single-thread rerun of either is
// bit-identical.
func TestTrainUnifiesEntryPoints(t *testing.T) {
	dense, err := GenerateDense("D8M8", 64, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := GenerateSparse("D8i16M8", 256, 600, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		cfg   Config
		ds    Dataset
	}{
		{"dense", Config{Signature: "D8M8", Epochs: 3, Seed: 7, Threads: 1}, dense},
		{"sparse", Config{Signature: "D8i16M8", Epochs: 3, Seed: 7, Threads: 1}, sparse},
	} {
		first, err := Train(tc.cfg, tc.ds)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Train(tc.cfg, tc.ds)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, tc.label, first, again)
	}
}

func TestTrainRejectsOtherDatasets(t *testing.T) {
	if _, err := Train(Config{}, nil); err == nil || err.Error() != "buckwild: nil dataset" {
		t.Errorf("nil dataset: %v", err)
	}
	if _, err := Train(Config{}, fakeDataset{}); err == nil ||
		!strings.Contains(err.Error(), "unsupported dataset type") {
		t.Errorf("foreign dataset: %v", err)
	}
	// A typed-nil dense dataset behaves exactly like the old wrapper: the
	// config is validated first, then the empty-dataset check fires.
	var dense *DenseDataset
	if _, err := Train(Config{}, dense); err == nil || err.Error() != "buckwild: empty dataset" {
		t.Errorf("typed-nil dense: %v", err)
	}
}

type fakeDataset struct{}

func (fakeDataset) Len() int { return 1 }
func (fakeDataset) Dim() int { return 1 }

// TestValidateErrorTextUnchanged pins the exact historical error strings
// of Config.Validate — the facade redesign must not reword them.
func TestValidateErrorTextUnchanged(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Problem: "ridge"}, `buckwild: unknown problem "ridge"`},
		{Config{Rounding: "unbiased-quantum"}, `buckwild: unknown rounding "unbiased-quantum"`},
		{Config{Threads: -1}, "buckwild: negative thread count -1"},
		{Config{MiniBatch: -2}, "buckwild: negative mini-batch size -2"},
		{Config{Epochs: -1}, "buckwild: negative epoch count -1"},
		{Config{StepSize: -0.5}, "buckwild: negative step size -0.5"},
		{Config{StepDecay: -1}, "buckwild: negative step decay -1"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil || err.Error() != c.want {
			t.Errorf("Validate(%+v) = %v, want %q", c.cfg, err, c.want)
		}
	}
}

func TestClusterConfigValidate(t *testing.T) {
	bad := []Config{
		{Cluster: ClusterConfig{Nodes: -1}},
		{Cluster: ClusterConfig{Nodes: 2, Protocol: "ring"}},
		{Cluster: ClusterConfig{Nodes: 2, WireBits: 7}},
		{Cluster: ClusterConfig{Nodes: 2, BatchPerNode: -1}},
		{Cluster: ClusterConfig{Nodes: 2, StalenessAlpha: -1}},
	}
	for i, cfg := range bad {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("case %d: bad cluster config accepted: %+v", i, cfg.Cluster)
			continue
		}
		if !strings.HasPrefix(err.Error(), "buckwild:") {
			t.Errorf("case %d: error %q lacks the buckwild: prefix", i, err)
		}
	}
	// The zero value means "no cluster" and must validate.
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config: %v", err)
	}
	if err := (Config{Cluster: ClusterConfig{Nodes: 1}}).Validate(); err != nil {
		t.Errorf("single node: %v", err)
	}
}

func TestClusterFacadeRouting(t *testing.T) {
	ds, err := GenerateDense("", 48, 512, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Zero cluster config: today's behavior, no cluster stats.
	solo, err := Train(Config{Epochs: 2, Seed: 3}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Cluster != nil {
		t.Fatal("single-machine run reported cluster stats")
	}

	cfg := Config{
		Epochs: 2, Seed: 3,
		Cluster: ClusterConfig{
			Nodes: 4, Protocol: AllReduceProtocol, WireBits: 8, ErrorFeedback: true,
		},
	}
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cluster
	if c == nil {
		t.Fatal("cluster run reported no cluster stats")
	}
	if c.Nodes != 4 || c.Protocol != "all-reduce" || c.WireBits != 8 {
		t.Errorf("cluster identity: %+v", c)
	}
	if c.WireBytes == 0 || c.WireBytes != c.HeaderBytes+c.GradBytes+c.ModelBytes {
		t.Errorf("wire accounting: %+v", c)
	}
	if last := res.TrainLoss[len(res.TrainLoss)-1]; last >= res.TrainLoss[0] {
		t.Errorf("cluster run did not improve: %v", res.TrainLoss)
	}

	// Deterministic through the facade.
	again, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "cluster rerun", res, again)
}

func TestClusterWireBitsFromSignature(t *testing.T) {
	ds, err := GenerateDense("D32fM32fC8", 32, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(Config{
		Signature: "D32fM32fC8", Epochs: 1,
		Cluster: ClusterConfig{Nodes: 2},
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster.WireBits != 8 {
		t.Errorf("wire bits %d, want 8 from the signature's C term", res.Cluster.WireBits)
	}
	// No C term: full-precision wire.
	plain, err := Train(Config{Epochs: 1, Cluster: ClusterConfig{Nodes: 2}}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cluster.WireBits != 32 {
		t.Errorf("wire bits %d, want 32 without a C term", plain.Cluster.WireBits)
	}
}

// TestClusterWireRefusesUnsupportedCTerm: a C term the wire cannot carry
// fails the run instead of becoming a 32-bit wire, the float ones with the
// same error as a D16f or M16f term.
func TestClusterWireRefusesUnsupportedCTerm(t *testing.T) {
	ds, err := GenerateDense("D8M8", 32, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	for sig, want := range map[string]string{
		"D8M8C16f": "buckwild: only 32-bit float storage is supported, got 16f",
		"D8M8C64f": "buckwild: only 32-bit float storage is supported, got 64f",
		"D8M8C64":  "buckwild: signature communication precision 64 not supported on the cluster wire (use 4, 8, 16 or 32)",
	} {
		_, err := Train(Config{Signature: sig, Epochs: 1, Cluster: ClusterConfig{Nodes: 2}}, ds)
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", sig, err, want)
		}
	}
}

// TestClusterEpochsLogged: a cluster run logs each epoch once through
// Config.Logger, scoped to the cluster component, and logging leaves the
// run's bits alone.
func TestClusterEpochsLogged(t *testing.T) {
	ds, err := GenerateDense("", 32, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Epochs: 3, Seed: 2, Cluster: ClusterConfig{Nodes: 3}}
	bare, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Logger = logger
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "logged cluster run", bare, res)
	var epochs []float64
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		var rec map[string]any
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("%v: %s", err, line)
		}
		if rec["component"] == "cluster" && rec["event"] == "epoch" {
			epochs = append(epochs, rec["epoch"].(float64))
		}
	}
	if fmt.Sprint(epochs) != "[1 2 3]" {
		t.Errorf("cluster epoch records for epochs %v, want one each for [1 2 3]; log:\n%s", epochs, buf.String())
	}
}

func TestClusterSparseRejected(t *testing.T) {
	sds, err := GenerateSparse("D8i16M8", 64, 128, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Signature: "D8i16M8", Cluster: ClusterConfig{Nodes: 2}}
	_, err = Train(cfg, sds)
	if err == nil || !strings.Contains(err.Error(), "dense datasets only") {
		t.Errorf("sparse cluster run: %v", err)
	}
}

func TestClusterStalenessCompensationThroughFacade(t *testing.T) {
	ds, err := GenerateDense("", 32, 512, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(Config{
		Epochs: 2,
		Cluster: ClusterConfig{
			Nodes: 6, Protocol: ParameterServer, StalenessAlpha: 0.4,
		},
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster.CompensatedUpdates == 0 {
		t.Errorf("no compensated updates on a 6-node parameter server: %+v", res.Cluster)
	}
	if res.Cluster.Staleness.Count == 0 {
		t.Error("staleness histogram empty")
	}
}
