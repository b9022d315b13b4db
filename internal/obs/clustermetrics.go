package obs

import "sync/atomic"

// ClusterMetrics keeps live, scrape-ready per-node counters of a running
// cluster simulation: updates landed, wire bytes sent and the staleness
// histogram of each simulated node. The simulation records from its
// single event-loop goroutine; scrapes read every counter atomically, so
// a /metrics request never blocks (or skews) the simulation. A nil
// *ClusterMetrics is fully inert, the package's zero-cost convention.
type ClusterMetrics struct {
	nodes atomic.Pointer[[]clusterNodeLive]
}

type clusterNodeLive struct {
	updates   atomic.Uint64
	wireBytes atomic.Uint64
	staleness Histogram
}

// Reset sizes the collector for a run of n nodes, discarding any
// previous run's counters.
func (m *ClusterMetrics) Reset(n int) {
	if m == nil || n <= 0 {
		return
	}
	nodes := make([]clusterNodeLive, n)
	m.nodes.Store(&nodes)
}

// Nodes returns the node count of the current run (0 before Reset).
func (m *ClusterMetrics) Nodes() int {
	if m == nil {
		return 0
	}
	if p := m.nodes.Load(); p != nil {
		return len(*p)
	}
	return 0
}

func (m *ClusterMetrics) node(i int) *clusterNodeLive {
	if m == nil {
		return nil
	}
	p := m.nodes.Load()
	if p == nil || i < 0 || i >= len(*p) {
		return nil
	}
	return &(*p)[i]
}

// ObserveUpdate records one model update landed by node i with the given
// staleness.
func (m *ClusterMetrics) ObserveUpdate(i int, staleness uint64) {
	if n := m.node(i); n != nil {
		n.updates.Add(1)
		n.staleness.Observe(staleness)
	}
}

// AddWireBytes attributes bytes put on the interconnect to node i.
func (m *ClusterMetrics) AddWireBytes(i int, bytes uint64) {
	if n := m.node(i); n != nil {
		n.wireBytes.Add(bytes)
	}
}

// writeProm renders the per-node counters with a node label per sample.
// Staleness is exported as per-node p50/p99 gauges (labelled histograms
// would need a label-aware writer; the quantiles are what the
// staleness-compensation knob is tuned against).
func (m *ClusterMetrics) writeProm(pw *promWriter) {
	if m == nil {
		return
	}
	p := m.nodes.Load()
	if p == nil || len(*p) == 0 {
		return
	}
	pw.header("buckwild_cluster_node_updates_total", "counter", "Model updates landed per simulated node.")
	for i := range *p {
		pw.printf("buckwild_cluster_node_updates_total{node=\"%d\"} %d\n", i, (*p)[i].updates.Load())
	}
	pw.header("buckwild_cluster_node_wire_bytes_total", "counter", "Interconnect bytes sent per simulated node.")
	for i := range *p {
		pw.printf("buckwild_cluster_node_wire_bytes_total{node=\"%d\"} %d\n", i, (*p)[i].wireBytes.Load())
	}
	pw.header("buckwild_cluster_node_staleness_p50", "gauge", "Median update staleness per simulated node.")
	for i := range *p {
		pw.printf("buckwild_cluster_node_staleness_p50{node=\"%d\"} %s\n", i, promFloat((*p)[i].staleness.Snapshot().Quantile(0.5)))
	}
	pw.header("buckwild_cluster_node_staleness_p99", "gauge", "p99 update staleness per simulated node.")
	for i := range *p {
		pw.printf("buckwild_cluster_node_staleness_p99{node=\"%d\"} %s\n", i, promFloat((*p)[i].staleness.Snapshot().Quantile(0.99)))
	}
}

// Snapshot assembles a live ClusterStats view of the current run — the
// per-node counters plus a merged staleness histogram — for consumers
// that want the struct form mid-run (the dashboard feed, a bundle's
// stats/cluster section). Totals the
// wire meter only knows at the end (sim seconds, byte breakdown) stay
// zero. Nil and pre-Reset receivers return nil.
func (m *ClusterMetrics) Snapshot() *ClusterStats {
	if m == nil {
		return nil
	}
	p := m.nodes.Load()
	if p == nil || len(*p) == 0 {
		return nil
	}
	stats := &ClusterStats{Nodes: len(*p)}
	for i := range *p {
		n := &(*p)[i]
		hist := n.staleness.Snapshot()
		ns := NodeStats{
			Node:         i,
			Updates:      n.updates.Load(),
			WireBytes:    n.wireBytes.Load(),
			Staleness:    hist,
			StalenessP50: hist.Quantile(0.5),
			StalenessP99: hist.Quantile(0.99),
		}
		stats.PerNode = append(stats.PerNode, ns)
		stats.WireBytes += ns.WireBytes
		stats.Staleness.Merge(hist)
	}
	return stats
}
