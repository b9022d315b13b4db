package main

// comm.go is the communication phase: three simulated-cluster runs (the
// cluster node loop and the wire quantiser) and one TrainSync run on one
// full-precision dataset. The cluster simulation is single-goroutine and
// bit-deterministic, so every repetition must reproduce the first.

import (
	"fmt"
	"time"

	"buckwild"
)

// clusterRuns are the cluster configurations of one repetition.
var clusterRuns = []struct {
	Key string
	Cfg buckwild.ClusterConfig
}{
	{"ps8", buckwild.ClusterConfig{Nodes: 8, Protocol: buckwild.ParameterServer, WireBits: 8}},
	{"allreduce8", buckwild.ClusterConfig{Nodes: 8, Protocol: buckwild.AllReduceProtocol, WireBits: 8}},
	{"ps32", buckwild.ClusterConfig{Nodes: 4, Protocol: buckwild.ParameterServer, WireBits: 32, StalenessAlpha: 0.1}},
}

// clusterStat is what golden.json pins of one cluster run.
type clusterStat struct {
	Messages    uint64  `json:"messages"`
	WireBytes   uint64  `json:"wire_bytes"`
	HeaderBytes uint64  `json:"header_bytes"`
	GradBytes   uint64  `json:"grad_bytes"`
	ModelBytes  uint64  `json:"model_bytes"`
	SimSeconds  float64 `json:"sim_seconds"`
	FinalLoss   float64 `json:"final_loss"`
}

// commStat is one repetition's simulated statistics.
type commStat struct {
	Cluster  map[string]clusterStat `json:"cluster"`
	SyncLoss float64                `json:"sync_final_loss"`
}

func (a commStat) equal(b commStat) bool {
	if a.SyncLoss != b.SyncLoss || len(a.Cluster) != len(b.Cluster) {
		return false
	}
	for k, v := range a.Cluster {
		if b.Cluster[k] != v {
			return false
		}
	}
	return true
}

func lastLoss(r *buckwild.Result) float64 { return r.TrainLoss[len(r.TrainLoss)-1] }

// commRep is one repetition: the statistics to check and the host times
// to report.
type commRep struct {
	stat        commStat
	cluster     map[string]*buckwild.ClusterStats
	clusterWall map[string]time.Duration
	syncWall    time.Duration
	syncRounds  int
}

// commOnce runs the three cluster configurations and TrainSync once.
func (c *runCtx) commOnce(ds *buckwild.DenseDataset, parent int) (commRep, error) {
	cin := c.w.Comm
	r := commRep{stat: commStat{Cluster: map[string]clusterStat{}},
		cluster: map[string]*buckwild.ClusterStats{}, clusterWall: map[string]time.Duration{}}
	for _, cr := range clusterRuns {
		cfg := buckwild.Config{Signature: "D32fM32f", Epochs: cin.ClusterEpochs, Seed: c.seed, Cluster: cr.Cfg}
		sp := c.rec.begin(parent, "cluster", "train:"+cr.Key)
		t0 := time.Now()
		res, err := buckwild.Train(cfg, ds)
		r.clusterWall[cr.Key] = time.Since(t0)
		sp.end()
		if c.op(err) != nil {
			return r, err
		}
		cs := res.Cluster
		if cs == nil {
			return r, fmt.Errorf("cluster run %s returned no ClusterStats", cr.Key)
		}
		if cs.WireBytes != cs.HeaderBytes+cs.GradBytes+cs.ModelBytes {
			c.checkf("comm: %s: WireBytes %d != HeaderBytes %d + GradBytes %d + ModelBytes %d",
				cr.Key, cs.WireBytes, cs.HeaderBytes, cs.GradBytes, cs.ModelBytes)
		}
		r.stat.Cluster[cr.Key] = clusterStat{Messages: cs.Messages, WireBytes: cs.WireBytes, HeaderBytes: cs.HeaderBytes,
			GradBytes: cs.GradBytes, ModelBytes: cs.ModelBytes, SimSeconds: cs.SimSeconds, FinalLoss: lastLoss(res)}
		r.cluster[cr.Key] = cs
	}
	scfg := buckwild.SyncConfig{CommBits: 1, ErrorFeedback: true, Workers: 4, Epochs: cin.SyncEpochs, Seed: c.seed}
	sp := c.rec.begin(parent, "core", "train-sync")
	t0 := time.Now()
	res, err := buckwild.TrainSync(scfg, ds)
	r.syncWall = time.Since(t0)
	sp.end()
	if c.op(err) != nil {
		return r, err
	}
	r.syncRounds = res.Steps
	r.stat.SyncLoss = lastLoss(res)
	return r, nil
}

// commPhase measures cluster_msgs_per_s and sync_nps.
type commPhase struct {
	c           *runCtx
	span        openSpan // the current round's
	ds          *buckwild.DenseDataset
	acct        account
	first, last commRep
	nsPerMsg    map[string][]float64
	roundUS     []float64
}

func (c *runCtx) newCommPhase(in *inputs) (phase, error) {
	p := &commPhase{c: c, ds: in.commData, nsPerMsg: map[string][]float64{}}
	// Warm-up: the first cluster run of a process is slower than the rest.
	// It runs on a context of its own so that it leaves no spans, samples
	// or check results behind.
	_, err := (&runCtx{w: c.w, seed: c.seed}).commOnce(p.ds, 0)
	return p, c.op(err)
}

func (p *commPhase) round(slice time.Duration, last bool) error {
	p.span = p.c.rec.begin(p.c.root, "harness", "phase:comm")
	defer p.span.end()
	return p.acct.spend(slice, last, p.c.minReps(3), 256, p.rep)
}

func (p *commPhase) rep(i int) error {
	c := p.c
	r, err := c.commOnce(p.ds, p.span.id)
	if err != nil {
		return err
	}
	var msgs uint64
	var wall time.Duration
	for key, cs := range r.cluster {
		msgs += cs.Messages
		wall += r.clusterWall[key]
		p.nsPerMsg[key] = append(p.nsPerMsg[key], float64(r.clusterWall[key].Nanoseconds())/float64(cs.Messages))
	}
	c.sample("cluster_msgs_per_s", float64(msgs)/wall.Seconds())
	c.sample("sync_nps", float64(c.w.Comm.SyncEpochs)*float64(p.ds.Len())*float64(p.ds.Dim())/r.syncWall.Seconds())
	p.roundUS = append(p.roundUS, float64(r.syncWall.Nanoseconds())/1e3/float64(max(r.syncRounds, 1)))
	if i == 0 {
		p.first = r
		c.checkGoldenComm(r.stat)
	} else if !r.stat.equal(p.first.stat) {
		c.checkf("comm: repetition %d of the seeded cluster and TrainSync runs differs from the first: %+v vs %+v", i, r.stat, p.first.stat)
	}
	p.last = r
	return nil
}

func (p *commPhase) finish() error {
	c := p.c
	if !c.traced() {
		return nil
	}
	last := p.last
	c.setLayer("cluster.host_ns_per_msg.ps", median(p.nsPerMsg["ps8"]))
	c.setLayer("cluster.host_ns_per_msg.allreduce", median(p.nsPerMsg["allreduce8"]))
	var wire, grad uint64
	var simS, saved float64
	for _, cs := range last.cluster {
		wire += cs.WireBytes
		grad += cs.GradBytes
		simS += cs.SimSeconds
		saved += cs.OverlapSavedSeconds
	}
	c.setLayer("cluster.wire_bytes", float64(wire))
	c.setLayer("cluster.grad_bytes", float64(grad))
	c.setLayer("cluster.sim_seconds", simS)
	c.setLayer("cluster.overlap_saved_s", saved)
	c.setLayer("cluster.staleness_p99", last.cluster["ps8"].Staleness.Quantile(0.99))
	perPush := func(cs *buckwild.ClusterStats) float64 { return float64(cs.GradBytes) / float64(max(cs.GradPushes, 1)) }
	c.setLayer("cluster.c8_c32_bytes_ratio", perPush(last.cluster["ps8"])/perPush(last.cluster["ps32"]))
	c.setLayer("core.sync_round_us", median(p.roundUS))
	return nil
}

func (c *runCtx) checkGoldenComm(got commStat) {
	want, ok := c.golden.commFor(c.w, c.seed)
	if !ok {
		return
	}
	if !got.equal(want) {
		c.checkf("comm: simulated statistics %+v differ from golden %+v", got, want)
	}
}
