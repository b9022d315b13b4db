package cache

// lineState folds the per-line coherence metadata that used to live in
// three separate map[uint64] tables (sharer directory, dirty owner and the
// contention window) into one record, so the per-access hot path touches a
// single memory location instead of paying three hash lookups.
//
// Besides the directory, the record carries *exact* presence information —
// which private caches hold the line right now, and where it sits in the
// shared level — maintained at every fill, eviction and invalidation. The
// hierarchy uses it to skip set scans that are guaranteed to miss (the
// dominant cost of the simulator before this existed) and to answer
// othersHolding with one mask intersection instead of 2×Cores probes.
// Presence is distinct from the sharers directory on purpose: the directory
// is allowed to be forgetful (an obstinate cache that ignored an invalidate
// is deliberately dropped from it while still holding the line), so the two
// cannot be merged without changing coherence behaviour.
type lineState struct {
	// sharers is the directory: a bit per core that may hold the line.
	// Bits can be stale after silent evictions; writers verify actual
	// presence before paying for invalidations.
	sharers uint32
	// contention accumulates coherence-transaction latency on a model
	// line within the current measurement window. epoch implements the
	// ResetStats window reset lazily: a record whose epoch differs from
	// the hierarchy's has logically-zero contention.
	contention uint32
	epoch      uint32
	// l1p and l2p are exact presence masks: bit c is set iff core c's
	// L1 (resp. L2) holds the line in a non-Invalid state right now.
	l1p uint32
	l2p uint32
	// l3way1 is 1 + the line's way index in the shared level when the
	// line is present there, else 0. It turns an L3 hit into one store
	// of the way's LRU stamp instead of a 20-way set scan.
	l3way1 uint32
	// owner is 1+core of the core holding the line in Modified state, or
	// 0 when none, so the zero value is an empty record.
	owner uint8
}

// present reports whether core c's private caches hold the line.
func (ls *lineState) present(c int) bool {
	return (ls.l1p|ls.l2p)&(1<<uint(c)) != 0
}

const (
	// pageBits sizes a page at 4096 line records (64 KiB).
	pageBits  = 12
	pageLines = 1 << pageBits
	pageMask  = pageLines - 1
	// lowLines covers line addresses below 2^22 (the model region, which
	// trace places at address 0) with a flat page-pointer array; higher
	// addresses (the per-core dataset windows at 1 TiB) fall back to a
	// paged map behind a last-page cache, which the sequential dataset
	// streams hit almost always.
	lowLines = 1 << 22
)

type linePage [pageLines]lineState

// lineTable is a paged line-state store. Page pointers are stable once
// allocated, so *lineState references stay valid across later inserts. A
// small direct-mapped cache in front of the high map absorbs the streaming
// dataset accesses and the L3-eviction scrubs of recently-dead pages.
type lineTable struct {
	low   [lowLines >> pageBits]*linePage
	high  map[uint64]*linePage
	cache [16]struct {
		key  uint64
		page *linePage
	}
}

// get returns the record for line address la, allocating its page on first
// touch.
func (t *lineTable) get(la uint64) *lineState {
	if la < lowLines {
		p := t.low[la>>pageBits]
		if p == nil {
			p = new(linePage)
			t.low[la>>pageBits] = p
		}
		return &p[la&pageMask]
	}
	k := la >> pageBits
	c := &t.cache[k&uint64(len(t.cache)-1)]
	if c.page != nil && c.key == k {
		return &c.page[la&pageMask]
	}
	if t.high == nil {
		t.high = make(map[uint64]*linePage)
	}
	p := t.high[k]
	if p == nil {
		p = new(linePage)
		t.high[k] = p
	}
	c.key, c.page = k, p
	return &p[la&pageMask]
}
