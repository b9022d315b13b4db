package buckwild

import (
	"fmt"

	"buckwild/internal/cluster"
	"buckwild/internal/core"
	"buckwild/internal/kernels"
	"buckwild/internal/obs"
)

// ClusterProtocol selects the simulated cluster's communication protocol.
// The zero value means ParameterServer.
type ClusterProtocol string

// The supported protocols.
const (
	// ParameterServer is an asynchronous parameter server: nodes push
	// wire-quantized gradients and pull model snapshots; the server
	// applies pushes as they arrive, optionally scaling each update's
	// step by its observed staleness (ClusterConfig.StalenessAlpha).
	ParameterServer ClusterProtocol = "param-server"
	// AllReduceProtocol is a double-buffered pipelined all-reduce: round
	// k trains while round k-1's reduction is in flight, so every update
	// lands exactly one round stale.
	AllReduceProtocol ClusterProtocol = "all-reduce"
)

// Valid reports whether p names a supported protocol.
func (p ClusterProtocol) Valid() bool {
	_, err := p.protocol()
	return err == nil
}

func (p ClusterProtocol) protocol() (cluster.Protocol, error) {
	switch p {
	case "", ParameterServer:
		return cluster.ParamServer, nil
	case AllReduceProtocol:
		return cluster.AllReduce, nil
	}
	return 0, fmt.Errorf("buckwild: unknown cluster protocol %q", string(p))
}

// ClusterStats is the simulated-interconnect snapshot surfaced on
// Result.Cluster after a multi-node run: exact wire-byte accounting
// (WireBytes == HeaderBytes + GradBytes + ModelBytes always holds), the
// simulated time split between compute and communication, and the
// per-update staleness histogram.
type ClusterStats = obs.ClusterStats

// ClusterConfig extends a training Config across a simulated multi-node
// cluster. The zero value means a single machine — Train behaves exactly
// as it always has; setting Nodes >= 2 routes dense training through the
// cluster tier instead (sparse datasets are not supported there).
//
// On the cluster, gradients cross the simulated interconnect quantized to
// WireBits — the DMGC communication term extended across a network — and
// every message's bytes are counted exactly into Result.Cluster. The
// interconnect is a fixed 10 GbE-class fabric (50 µs latency, 1.25 GB/s
// per NIC, 16-byte message headers) and each node computes at 1 GNPS.
type ClusterConfig struct {
	// Nodes is the simulated machine count; 0 and 1 both mean "no
	// cluster" (single-machine training, today's behavior).
	Nodes int
	// Protocol picks ParameterServer (default) or AllReduceProtocol.
	Protocol ClusterProtocol
	// WireBits is the gradient wire precision: 4, 8, 16 or 32. Zero
	// resolves from the signature's communication term when it has one
	// (e.g. "D32fM32fC8" puts 8-bit gradients on the wire), else 32.
	WireBits uint
	// ErrorFeedback carries each node's wire-quantization residual into
	// its next message (1-bit SGD's essential trick).
	ErrorFeedback bool
	// BatchPerNode is the examples a node processes per gradient message
	// (default 8).
	BatchPerNode int
	// StalenessAlpha enables staleness-compensated learning rates on the
	// parameter server: an update observed s model versions stale is
	// applied with step/(1+alpha*s). Zero disables compensation.
	StalenessAlpha float64
	// LiveMetrics, when non-nil, receives per-node update counts, wire
	// bytes and staleness quantiles as the simulation runs, for scraping
	// mid-run (put it in a Surface's Cluster). Nil costs nothing.
	LiveMetrics *ClusterMetrics
}

// enabled reports whether the config asks for multi-node training.
func (c ClusterConfig) enabled() bool { return c.Nodes >= 2 }

// Validate checks the cluster configuration; Config.Validate calls it, so
// bad cluster inputs fail fast with "buckwild:"-prefixed errors like
// every other configuration error.
func (c ClusterConfig) Validate() error {
	if c.Nodes < 0 {
		return fmt.Errorf("buckwild: negative cluster node count %d", c.Nodes)
	}
	if _, err := c.Protocol.protocol(); err != nil {
		return err
	}
	switch c.WireBits {
	case 0, 4, 8, 16, 32:
	default:
		return fmt.Errorf("buckwild: unsupported wire precision %d (use 4, 8, 16 or 32)", c.WireBits)
	}
	if c.BatchPerNode < 0 {
		return fmt.Errorf("buckwild: negative cluster batch size %d", c.BatchPerNode)
	}
	if c.StalenessAlpha < 0 {
		return fmt.Errorf("buckwild: negative staleness compensation %v", c.StalenessAlpha)
	}
	return nil
}

// wireBits resolves the effective wire precision against the signature's
// communication term, which lowers like the D and M terms
// (kernels.TermPrec): absent, 32 and 32f are a 32-bit wire, and a float
// narrower than 32 bits is refused like D16f.
func (c ClusterConfig) wireBits(sigText string) (uint, error) {
	if c.WireBits != 0 {
		return c.WireBits, nil
	}
	if sigText == "" {
		return 32, nil
	}
	sig, err := ParseSignature(sigText)
	if err != nil {
		return 0, wrapErr(err)
	}
	p, err := kernels.TermPrec(sig.C)
	switch {
	case err != nil && sig.C.Float:
		return 0, wrapErr(err)
	case err != nil:
		return 0, fmt.Errorf("buckwild: signature communication precision %d not supported on the cluster wire (use 4, 8, 16 or 32)", sig.C.Bits)
	}
	return p.Bits(), nil
}

// clusterConfig lowers the facade config onto the cluster tier. cc is the
// already-validated core config, reused for the resolved defaults and
// the assembled observer.
func (c Config) clusterConfig(cc core.Config) (cluster.Config, error) {
	proto, err := c.Cluster.Protocol.protocol()
	if err != nil {
		return cluster.Config{}, err
	}
	bits, err := c.Cluster.wireBits(c.Signature)
	if err != nil {
		return cluster.Config{}, err
	}
	return cluster.Config{
		Problem:        cc.Problem,
		Nodes:          c.Cluster.Nodes,
		Protocol:       proto,
		WireBits:       bits,
		Quant:          cc.Quant,
		ErrorFeedback:  c.Cluster.ErrorFeedback,
		BatchPerNode:   c.Cluster.BatchPerNode,
		StepSize:       cc.StepSize,
		StepDecay:      c.StepDecay,
		Epochs:         c.Epochs,
		Seed:           c.Seed,
		StalenessAlpha: c.Cluster.StalenessAlpha,
		Ctx:            c.Context,
		Observer:       cc.Observer,
		Live:           c.Cluster.LiveMetrics,
		Logger:         obs.Component(c.Logger, "cluster"),
	}, nil
}
