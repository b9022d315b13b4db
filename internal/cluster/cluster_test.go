package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"buckwild/internal/core"
	"buckwild/internal/dataset"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
)

func clusterData(t *testing.T) *dataset.DenseSet {
	t.Helper()
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 64, M: 1024, P: kernels.F32, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func clusterRun(t *testing.T, ds *dataset.DenseSet, cfg Config) *core.Result {
	t.Helper()
	if cfg.Problem == 0 {
		cfg.Problem = core.Logistic
	}
	if cfg.StepSize == 0 {
		cfg.StepSize = 0.1
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	res, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func lastLoss(r *core.Result) float64 { return r.TrainLoss[len(r.TrainLoss)-1] }

func TestBothProtocolsConverge(t *testing.T) {
	ds := clusterData(t)
	for _, proto := range []Protocol{ParamServer, AllReduce} {
		res := clusterRun(t, ds, Config{Nodes: 4, Protocol: proto, WireBits: 32})
		if lastLoss(res) >= res.TrainLoss[0]*0.8 {
			t.Errorf("%v did not converge: %v", proto, res.TrainLoss)
		}
		if res.Steps == 0 || res.Cluster == nil {
			t.Fatalf("%v: missing steps or cluster stats", proto)
		}
	}
}

func TestQuantizedWireTracksFullPrecision(t *testing.T) {
	// The cluster restatement of the paper's C-term result: 8-bit
	// gradients on the wire with error feedback converge close to the
	// full-precision wire.
	ds := clusterData(t)
	for _, proto := range []Protocol{ParamServer, AllReduce} {
		full := clusterRun(t, ds, Config{Nodes: 4, Protocol: proto, WireBits: 32})
		q8 := clusterRun(t, ds, Config{
			Nodes: 4, Protocol: proto, WireBits: 8,
			Quant: kernels.QShared, ErrorFeedback: true,
		})
		if l8, lf := lastLoss(q8), lastLoss(full); l8 > lf*1.2+0.02 {
			t.Errorf("%v: 8-bit wire loss %v too far above full-precision %v", proto, l8, lf)
		}
	}
}

// TestDeterministicUnderSeed pins the discrete-event design promise:
// identical configs reproduce the run bit for bit — model, losses, and
// every wire counter.
func TestDeterministicUnderSeed(t *testing.T) {
	ds := clusterData(t)
	for _, proto := range []Protocol{ParamServer, AllReduce} {
		cfg := Config{
			Nodes: 4, Protocol: proto, WireBits: 8, Quant: kernels.QXorshift,
			ErrorFeedback: true, StalenessAlpha: 0.3,
		}
		a := clusterRun(t, ds, cfg)
		b := clusterRun(t, ds, cfg)
		for j := range a.W {
			if a.W[j] != b.W[j] {
				t.Fatalf("%v: W[%d] differs: %v vs %v", proto, j, a.W[j], b.W[j])
			}
		}
		for i := range a.TrainLoss {
			if a.TrainLoss[i] != b.TrainLoss[i] {
				t.Fatalf("%v: loss[%d] differs: %v vs %v", proto, i, a.TrainLoss[i], b.TrainLoss[i])
			}
		}
		if !reflect.DeepEqual(a.Cluster, b.Cluster) {
			t.Fatalf("%v: cluster stats differ:\n%+v\n%+v", proto, a.Cluster, b.Cluster)
		}
	}
}

func TestSeedChangesQuantizedRun(t *testing.T) {
	ds := clusterData(t)
	a := clusterRun(t, ds, Config{Nodes: 2, WireBits: 4, Quant: kernels.QXorshift, Seed: 1})
	b := clusterRun(t, ds, Config{Nodes: 2, WireBits: 4, Quant: kernels.QXorshift, Seed: 2})
	same := true
	for j := range a.W {
		if a.W[j] != b.W[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical unbiased-rounded models")
	}
}

// TestExactByteAccounting checks the wire-byte counters against the
// closed-form message census of each protocol, plus the ClusterStats
// framing invariant.
func TestExactByteAccounting(t *testing.T) {
	ds := clusterData(t)
	const nodes, batch, epochs = 4, 8, 3
	n := ds.N
	// Every shard is 1024/4 = 256 examples = 32 batches per epoch.
	pushes := uint64(nodes * 32 * epochs)
	gradPayload := uint64(4 + n) // 4-byte scale + 8-bit coordinates
	modelPayload := uint64(4 * n)

	t.Run("param-server", func(t *testing.T) {
		res := clusterRun(t, ds, Config{
			Nodes: nodes, Protocol: ParamServer, WireBits: 8,
			BatchPerNode: batch, Epochs: epochs,
		})
		c := res.Cluster
		// One bootstrap pull request per node, one model reply per pull
		// request and per non-final push, one gradient per batch.
		if c.GradPushes != pushes || c.ModelPulls != pushes || c.Messages != uint64(nodes)+2*pushes {
			t.Fatalf("message census: %+v", c)
		}
		if c.GradBytes != pushes*gradPayload {
			t.Errorf("GradBytes = %d, want %d", c.GradBytes, pushes*gradPayload)
		}
		if c.ModelBytes != pushes*modelPayload {
			t.Errorf("ModelBytes = %d, want %d", c.ModelBytes, pushes*modelPayload)
		}
		if c.HeaderBytes != c.Messages*DefaultHeaderBytes {
			t.Errorf("HeaderBytes = %d, want %d", c.HeaderBytes, c.Messages*DefaultHeaderBytes)
		}
		if c.WireBytes != c.HeaderBytes+c.GradBytes+c.ModelBytes {
			t.Errorf("framing invariant broken: %+v", c)
		}
		if uint64(res.Steps) != pushes || c.Staleness.Count != pushes {
			t.Errorf("steps %d, staleness count %d, want %d", res.Steps, c.Staleness.Count, pushes)
		}
	})

	t.Run("all-reduce", func(t *testing.T) {
		res := clusterRun(t, ds, Config{
			Nodes: nodes, Protocol: AllReduce, WireBits: 8,
			BatchPerNode: batch, Epochs: epochs,
		})
		c := res.Cluster
		rounds := uint64(32 * epochs)
		msgs := rounds * nodes * (nodes - 1)
		if c.Messages != msgs || c.GradPushes != msgs || c.ModelPulls != 0 {
			t.Fatalf("message census: %+v", c)
		}
		if c.GradBytes != msgs*gradPayload || c.ModelBytes != 0 {
			t.Errorf("payload bytes: %+v", c)
		}
		if c.WireBytes != c.HeaderBytes+c.GradBytes {
			t.Errorf("framing invariant broken: %+v", c)
		}
		if uint64(res.Steps) != rounds {
			t.Errorf("steps %d, want %d rounds", res.Steps, rounds)
		}
		if c.OverlapSavedSeconds <= 0 {
			t.Error("pipelined all-reduce hid no communication")
		}
	})
}

// TestWireLockstepWithKernelsQuantizer pins that the wire codec is the
// kernels quantizer — an identically seeded Quantizer driven directly
// reproduces every wire decode bit for bit, so there is no second
// rounding implementation to drift.
func TestWireLockstepWithKernelsQuantizer(t *testing.T) {
	const bits = 8
	node, seed := 3, uint64(77)
	c, err := newWireCodec(bits, kernels.QXorshift, seed, node)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := kernels.NewQuantizer(kernels.I8, kernels.QXorshift, 8, seed^(uint64(node)+1)*0xA24BAED4963EE407|1)
	if err != nil {
		t.Fatal(err)
	}
	fmt8 := kernels.I8.Fixed()

	g := make([]float32, 37)
	want := make([]float32, len(g))
	for i := range g {
		g[i] = float32(math.Sin(float64(i)*1.7)) * 0.03
	}
	var maxAbs float32
	for _, v := range g {
		if a := float32(math.Abs(float64(v))); a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / fmt8.MaxReal()
	for i, v := range g {
		want[i] = fmt8.Dequantize(ref.Quantize(v/scale)) * scale
	}

	res := make([]float32, len(g))
	if got := c.transfer(g, res, false, nil); got != c.payloadBytes(len(g)) {
		t.Fatalf("payload bytes %d", got)
	}
	for i := range g {
		if g[i] != want[i] {
			t.Fatalf("decode[%d] = %v, reference quantizer says %v", i, g[i], want[i])
		}
	}
}

func TestStalenessCompensation(t *testing.T) {
	ds := clusterData(t)
	base := Config{Nodes: 8, Protocol: ParamServer, WireBits: 32, Epochs: 3}
	plain := clusterRun(t, ds, base)
	comp := base
	comp.StalenessAlpha = 0.5
	scaled := clusterRun(t, ds, comp)

	if plain.Cluster.Staleness.Mean() <= 0 {
		t.Fatal("8-node parameter server observed no staleness")
	}
	if plain.Cluster.CompensatedUpdates != 0 {
		t.Error("compensation counted with alpha = 0")
	}
	if scaled.Cluster.CompensatedUpdates == 0 {
		t.Error("no updates compensated with alpha > 0")
	}
	same := true
	for j := range plain.W {
		if plain.W[j] != scaled.W[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("staleness compensation changed nothing")
	}
}

func TestObserverThreading(t *testing.T) {
	ds := clusterData(t)
	hooks := &countingHooks{}
	o := &obs.Observer{
		Hooks:     hooks,
		Tracer:    obs.NewTracer(64),
		Series:    obs.NewSeries(32),
		NumHealth: true,
	}
	const epochs = 3
	res := clusterRun(t, ds, Config{
		Nodes: 4, Protocol: AllReduce, WireBits: 8, ErrorFeedback: true,
		Epochs: epochs, Observer: o,
	})
	if hooks.epochs != epochs {
		t.Errorf("OnEpoch fired %d times, want %d", hooks.epochs, epochs)
	}
	if res.Stats == nil || res.Stats.Steps != uint64(res.Steps) {
		t.Fatalf("RunStats missing or inconsistent: %+v", res.Stats)
	}
	if ns := res.Stats.NumHealth; ns == nil || ns.Bias.Samples == 0 {
		t.Errorf("wire numerical health not collected: %+v", ns)
	} else if ns.Bias.Mode != "wire-"+kernels.QuantKind(0).String() {
		t.Errorf("bias mode = %q", ns.Bias.Mode)
	}
	if res.Series == nil || len(res.Series.Windows) == 0 {
		t.Error("time-series not recorded")
	}
	if o.Tracer.SpanCount() == 0 {
		t.Error("no trace spans recorded")
	}
}

type countingHooks struct {
	obs.NopHooks
	epochs int
}

func (h *countingHooks) OnEpoch(obs.EpochInfo) { h.epochs++ }

func TestContextCancellation(t *testing.T) {
	ds := clusterData(t)
	ctx, cancel := context.WithCancelCause(context.Background())
	want := errors.New("deadline budget spent")
	cancel(want)
	for _, proto := range []Protocol{ParamServer, AllReduce} {
		_, err := Train(Config{
			Problem: core.Logistic, Nodes: 2, Protocol: proto, WireBits: 32,
			StepSize: 0.1, Ctx: ctx,
		}, ds)
		if !errors.Is(err, want) {
			t.Errorf("%v: err = %v, want cancellation cause", proto, err)
		}
	}
}

func TestValidation(t *testing.T) {
	ds := clusterData(t)
	bad := []Config{
		{Nodes: 0, WireBits: 32, StepSize: 0.1},
		{Nodes: 2, WireBits: 7, StepSize: 0.1},
		{Nodes: 2, WireBits: 32},
		{Nodes: 2, WireBits: 32, StepSize: 0.1, Protocol: Protocol(9)},
		{Nodes: 2, WireBits: 32, StepSize: 0.1, StalenessAlpha: -1},
		{Nodes: 2, WireBits: 32, StepSize: 0.1, BatchPerNode: -1},
		{Nodes: 2, WireBits: 32, StepSize: 0.1, StepDecay: 2},
	}
	for i, cfg := range bad {
		cfg.Problem = core.Logistic
		if _, err := Train(cfg, ds); err == nil {
			t.Errorf("config %d should have failed validation: %+v", i, cfg)
		}
	}
	if _, err := Train(Config{Problem: core.Logistic, Nodes: 2, WireBits: 32, StepSize: 0.1}, nil); err == nil {
		t.Error("nil dataset should fail")
	}
	tiny, err := dataset.GenDense(dataset.DenseConfig{N: 4, M: 3, P: kernels.F32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(Config{Problem: core.Logistic, Nodes: 8, WireBits: 32, StepSize: 0.1}, tiny); err == nil {
		t.Error("more nodes than examples should fail")
	}
}

func TestSingleNodeDegenerates(t *testing.T) {
	// One node is the degenerate cluster: no staleness, and for the
	// parameter server every pull round-trips but nothing is ever stale.
	ds := clusterData(t)
	res := clusterRun(t, ds, Config{Nodes: 1, Protocol: ParamServer, WireBits: 32})
	if res.Cluster.Staleness.Sum != 0 {
		t.Errorf("single node observed staleness: %+v", res.Cluster.Staleness)
	}
	if lastLoss(res) >= res.TrainLoss[0]*0.8 {
		t.Errorf("single-node run did not converge: %v", res.TrainLoss)
	}
}

// clusterPins are FNV-64a digests of seeded runs: the bits of W and
// TrainLoss, the JSON form of Result.Cluster (messages, every byte count,
// SimSeconds and the per-node split) from a plain run, then the JSON form
// of NumStats from the NumHealth rerun, which must reproduce the rest.
// Keys are "<protocol>/C<bits>/ef=<bool>/a<alpha>". They were captured
// before the gradient, wire and loss loops were rewritten, so they are
// the elementwise loops' answers, bit for bit.
var clusterPins = map[string]uint64{
	"param-server/C4/ef=false/a0":    0x9e6fddfbc5f540a8,
	"param-server/C4/ef=false/a0.1":  0x8645372cb70ed707,
	"param-server/C4/ef=true/a0":     0x4910b6457435241c,
	"param-server/C4/ef=true/a0.1":   0xcd28218b96980df4,
	"param-server/C8/ef=false/a0":    0xb92f7bb853d395c2,
	"param-server/C8/ef=false/a0.1":  0x9a1c20e447c062be,
	"param-server/C8/ef=true/a0":     0xf38fc3d29ca30b91,
	"param-server/C8/ef=true/a0.1":   0x334fde1529cbea6e,
	"param-server/C16/ef=false/a0":   0x5a9a27dd57ec2a18,
	"param-server/C16/ef=false/a0.1": 0x2f9beaa4b6b6520d,
	"param-server/C16/ef=true/a0":    0xb94f68e7d6d215dd,
	"param-server/C16/ef=true/a0.1":  0x528e6354fbae4419,
	"param-server/C32/ef=false/a0":   0xc78bcf925e603710,
	"param-server/C32/ef=false/a0.1": 0xef95cbc5704eb005,
	"param-server/C32/ef=true/a0":    0xc78bcf925e603710,
	"param-server/C32/ef=true/a0.1":  0xef95cbc5704eb005,
	"all-reduce/C4/ef=false/a0":      0xcc12e6088d5491f9,
	"all-reduce/C4/ef=false/a0.1":    0xa8c1acf044ce26c2,
	"all-reduce/C4/ef=true/a0":       0x8cf91a64c0274df0,
	"all-reduce/C4/ef=true/a0.1":     0xcc5ba0c81ef19bcc,
	"all-reduce/C8/ef=false/a0":      0xdd0823be2b13031c,
	"all-reduce/C8/ef=false/a0.1":    0x3e58fbbddb818194,
	"all-reduce/C8/ef=true/a0":       0xb1f41ab306c149d4,
	"all-reduce/C8/ef=true/a0.1":     0x57b25c1e262bcd9e,
	"all-reduce/C16/ef=false/a0":     0xdf484243cc5671c,
	"all-reduce/C16/ef=false/a0.1":   0x4e1f80f75a81868d,
	"all-reduce/C16/ef=true/a0":      0xfaafe5efd83f3b8,
	"all-reduce/C16/ef=true/a0.1":    0x9d929f8c0d3c8e74,
	"all-reduce/C32/ef=false/a0":     0x84d2e6ab52d9f09d,
	"all-reduce/C32/ef=false/a0.1":   0x3f4f778d8941cf13,
	"all-reduce/C32/ef=true/a0":      0x84d2e6ab52d9f09d,
	"all-reduce/C32/ef=true/a0.1":    0x3f4f778d8941cf13,
}

func TestClusterPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pins captured on amd64; other architectures may fuse float multiply-adds in the gradient path")
	}
	ds, err := dataset.GenDense(dataset.DenseConfig{N: 64, M: 2048, P: kernels.F32, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, proto := range []Protocol{ParamServer, AllReduce} {
		for _, bits := range []uint{4, 8, 16, 32} {
			for _, ef := range []bool{false, true} {
				for _, alpha := range []float64{0, 0.1} {
					rows++
					cfg := Config{Nodes: 4, Protocol: proto, WireBits: bits, Quant: kernels.QXorshift,
						ErrorFeedback: ef, StalenessAlpha: alpha, Epochs: 3}
					name := fmt.Sprintf("%v/C%d/ef=%v/a%v", proto, bits, ef, alpha)
					t.Run(name, func(t *testing.T) {
						plain := clusterDigest(t, clusterRun(t, ds, cfg), false)
						cfg.Observer = &obs.Observer{NumHealth: true}
						health := clusterRun(t, ds, cfg)
						if got := clusterDigest(t, health, false); got != plain {
							t.Errorf("NumHealth changed the run: %#x vs %#x", got, plain)
						}
						if got, want := clusterDigest(t, health, true)^plain, clusterPins[name]; got != want {
							t.Errorf("got %#x, want %#x", got, want)
						}
					})
				}
			}
		}
	}
	if rows != len(clusterPins) {
		t.Errorf("%d rows but %d pins", rows, len(clusterPins))
	}
}

// clusterDigest hashes a run's W, TrainLoss and Cluster stats, or with num
// set its Stats.NumHealth alone.
func clusterDigest(t *testing.T, res *core.Result, num bool) uint64 {
	t.Helper()
	h := fnv.New64a()
	if num {
		if res.Stats == nil || res.Stats.NumHealth == nil {
			t.Fatal("NumHealth run: no Stats.NumHealth")
		}
		b, err := json.Marshal(res.Stats.NumHealth)
		if err != nil {
			t.Fatalf("NumHealth run: marshal error %v", err)
		}
		h.Write(b)
		return h.Sum64()
	}
	for _, v := range res.W {
		binary.Write(h, binary.LittleEndian, math.Float32bits(v))
	}
	for _, v := range res.TrainLoss {
		binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
	b, err := json.Marshal(res.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	return h.Sum64()
}
