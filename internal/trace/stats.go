package trace

// This file holds the observability side of the trace package: per-kind
// access statistics that a Sink (or the Collector wrapper) can
// accumulate while the simulator runs, exported by machine.Result and
// the experiments' run reports.

// String names the access kind for reports.
func (k Kind) String() string {
	switch k {
	case DatasetStream:
		return "dataset-stream"
	case ModelSeq:
		return "model-seq"
	case ModelRandom:
		return "model-random"
	default:
		return "unknown"
	}
}

// KindStats aggregates the accesses of one kind.
type KindStats struct {
	// Accesses counts all accesses (reads and writes); Writes the write
	// subset.
	Accesses uint64 `json:"accesses"`
	Writes   uint64 `json:"writes"`
	// Coherent counts accesses flagged as coherence events (dirty-remote
	// transfers and invalidation broadcasts).
	Coherent uint64 `json:"coherent"`
	// LatencyCycles sums the raw hierarchy latencies.
	LatencyCycles uint64 `json:"latency_cycles"`
}

func (s *KindStats) add(write bool, latency int, coherent bool) {
	s.Accesses++
	if write {
		s.Writes++
	}
	if coherent {
		s.Coherent++
	}
	s.LatencyCycles += uint64(latency)
}

// Merge adds other's counts into s.
func (s *KindStats) Merge(other KindStats) {
	s.Accesses += other.Accesses
	s.Writes += other.Writes
	s.Coherent += other.Coherent
	s.LatencyCycles += other.LatencyCycles
}

// AccessStats breaks the trace's accesses down by kind.
type AccessStats struct {
	DatasetStream KindStats `json:"dataset_stream"`
	ModelSeq      KindStats `json:"model_seq"`
	ModelRandom   KindStats `json:"model_random"`
}

// Kind returns the bucket for k (DatasetStream for unknown kinds, which
// cannot occur for traces generated by this package).
func (a *AccessStats) Kind(k Kind) *KindStats {
	switch k {
	case ModelSeq:
		return &a.ModelSeq
	case ModelRandom:
		return &a.ModelRandom
	default:
		return &a.DatasetStream
	}
}

// Record folds one access into the stats. It is not safe for concurrent
// use; give each simulation its own AccessStats (machine.Simulate does).
func (a *AccessStats) Record(kind Kind, write bool, latency int, coherent bool) {
	a.Kind(kind).add(write, latency, coherent)
}

// Merge adds other's counts into a.
func (a *AccessStats) Merge(other AccessStats) {
	a.DatasetStream.Merge(other.DatasetStream)
	a.ModelSeq.Merge(other.ModelSeq)
	a.ModelRandom.Merge(other.ModelRandom)
}

// Total folds the per-kind buckets into one.
func (a AccessStats) Total() KindStats {
	var t KindStats
	t.Merge(a.DatasetStream)
	t.Merge(a.ModelSeq)
	t.Merge(a.ModelRandom)
	return t
}

// Reset zeroes the stats.
func (a *AccessStats) Reset() { *a = AccessStats{} }

// Collector is a Sink wrapper that accumulates AccessStats and forwards
// each access to Next (which may be nil for collect-only use). It lets
// callers instrument any existing Sink without modifying it.
type Collector struct {
	Stats AccessStats
	Next  Sink
}

// Record implements Sink.
func (c *Collector) Record(core int, kind Kind, write bool, latency int, coherent bool) {
	c.Stats.Record(kind, write, latency, coherent)
	if c.Next != nil {
		c.Next.Record(core, kind, write, latency, coherent)
	}
}
