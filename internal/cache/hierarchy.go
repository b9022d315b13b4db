package cache

import (
	"fmt"
	"math/bits"

	"buckwild/internal/prng"
)

// Hierarchy is the full simulated memory system: per-core L1 and L2, a
// shared L3 with a sharer directory, the sequential prefetcher, and the
// obstinate-cache behaviour.
//
// Coherence events — dirty-remote transfers and invalidation broadcasts —
// are what make small shared models slow (the communication-bound regime of
// Section 4), so the hierarchy distinguishes them from plain capacity
// misses: AccessInfo reports whether an access was a coherence event, and
// such events are charged the cross-core CoherenceLat.
type Hierarchy struct {
	cfg Config
	l1  []*level
	l2  []*level
	l3  *level
	// table holds the per-line coherence record (sharer directory, dirty
	// owner, contention window) in a paged store; see lineState.
	table lineTable
	// epoch tags the current measurement window: contention fields
	// stamped with an older epoch are logically zero (lazy ResetStats).
	epoch uint32
	// maxContention is the running maximum of any line's accumulated
	// coherence latency in the current window; see MaxLineContention.
	maxContention uint32
	// lineShift converts byte addresses to line addresses when LineSize
	// is a power of two (the common case); negative selects division.
	lineShift int
	rng       *prng.Xorshift64
	stats     Stats
}

// New builds a hierarchy from the configuration.
func New(cfg Config) (*Hierarchy, error) {
	if cfg.Cores < 1 || cfg.Cores > 32 {
		return nil, fmt.Errorf("cache: cores must be in [1, 32], got %d", cfg.Cores)
	}
	if cfg.Obstinacy < 0 || cfg.Obstinacy > 1 {
		return nil, fmt.Errorf("cache: obstinacy %v out of [0, 1]", cfg.Obstinacy)
	}
	if cfg.CoherenceLat == 0 {
		cfg.CoherenceLat = 90
	}
	if cfg.CoresPerSocket < 0 {
		return nil, fmt.Errorf("cache: negative CoresPerSocket")
	}
	h := &Hierarchy{
		cfg:       cfg,
		l1:        make([]*level, cfg.Cores),
		l2:        make([]*level, cfg.Cores),
		lineShift: -1,
		rng:       prng.NewXorshift64(cfg.Seed ^ 0x0B57A1),
	}
	if ls := cfg.LineSize; ls > 0 && ls&(ls-1) == 0 {
		for s := 0; ; s++ {
			if 1<<s == ls {
				h.lineShift = s
				break
			}
		}
	}
	var err error
	for c := 0; c < cfg.Cores; c++ {
		if h.l1[c], err = newLevel(cfg.L1Size, cfg.L1Assoc, cfg.LineSize); err != nil {
			return nil, err
		}
		if h.l2[c], err = newLevel(cfg.L2Size, cfg.L2Assoc, cfg.LineSize); err != nil {
			return nil, err
		}
	}
	if h.l3, err = newLevel(cfg.L3Size, cfg.L3Assoc, cfg.LineSize); err != nil {
		return nil, err
	}
	return h, nil
}

// Config returns the hierarchy's configuration (with defaults applied).
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a copy of the counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats zeroes the counters and the per-line contention window
// without disturbing cache contents, allowing measurement after warmup.
func (h *Hierarchy) ResetStats() {
	h.stats = Stats{}
	h.epoch++
	h.maxContention = 0
}

// MaxLineContention returns the largest accumulated coherence-transaction
// latency (cycles) any single model line received since the last
// ResetStats. Same-line transactions serialize in hardware, so this bounds
// the window's wall time from below; cross-socket transactions weigh more.
func (h *Hierarchy) MaxLineContention() uint32 {
	return h.maxContention
}

// contend records one coherence transaction of the given latency on a
// model line.
func (h *Hierarchy) contend(ls *lineState, lat int) {
	if ls.epoch != h.epoch {
		ls.epoch = h.epoch
		ls.contention = 0
	}
	ls.contention += uint32(lat)
	if ls.contention > h.maxContention {
		h.maxContention = ls.contention
	}
}

// lineOf converts a byte address to a line address.
func (h *Hierarchy) lineOf(addr uint64) uint64 {
	if h.lineShift >= 0 {
		return addr >> uint(h.lineShift)
	}
	return addr / uint64(h.cfg.LineSize)
}

// socketOf returns the NUMA socket of a core.
func (h *Hierarchy) socketOf(core int) int {
	if h.cfg.CoresPerSocket <= 0 {
		return 0
	}
	return core / h.cfg.CoresPerSocket
}

// cohLat returns the coherence round-trip latency between two cores.
func (h *Hierarchy) cohLat(a, b int) int {
	if h.socketOf(a) != h.socketOf(b) {
		return h.cfg.CoherenceLat * 5 / 2
	}
	return h.cfg.CoherenceLat
}

// Access performs one memory access and returns its latency in cycles.
func (h *Hierarchy) Access(core int, addr uint64, write, model bool) int {
	lat, _ := h.AccessInfo(core, addr, write, model)
	return lat
}

// AccessInfo performs one memory access by core to byte address addr and
// returns its latency in cycles plus whether it was a coherence event (a
// dirty-remote transfer or an invalidation of real remote copies). model
// marks accesses to the model region, the only region the obstinate cache
// applies to (the paper proposes enabling it per-page).
func (h *Hierarchy) AccessInfo(core int, addr uint64, write, model bool) (lat int, coherent bool) {
	la := h.lineOf(addr)
	h.stats.Accesses++
	if write {
		lat, coherent = h.write(core, la, model)
	} else {
		lat, coherent = h.read(core, la, model)
	}
	h.stats.Cycles += uint64(lat)
	return lat, coherent
}

func (h *Hierarchy) read(core int, la uint64, model bool) (int, bool) {
	ls := h.table.get(la)
	bit := uint32(1) << uint(core)
	if ls.l1p&bit != 0 {
		l1 := h.l1[core]
		w := l1.lookup(la)
		l1.touch(w)
		if l1.ways[w].stale() {
			h.stats.StaleReads++
		}
		h.stats.L1Hits++
		return h.cfg.L1Lat, false
	}
	if ls.l2p&bit != 0 {
		l2 := h.l2[core]
		w := l2.lookup(la)
		l2.touch(w)
		ln := &l2.ways[w]
		if ln.prefetched() {
			*ln &^= prefetchedBit
			h.stats.PrefetchUseful++
		}
		h.fillL1(core, la, *ln&(stateBits|staleBit), ls)
		h.stats.L2Hits++
		return h.cfg.L2Lat, false
	}
	// Private miss: consult the shared level.
	lat, coh := h.fetchShared(core, la, ls, model, false)
	h.maybePrefetch(core, la, model)
	return lat, coh
}

func (h *Hierarchy) write(core int, la uint64, model bool) (int, bool) {
	ls := h.table.get(la)
	bit := uint32(1) << uint(core)
	l1, w := h.l1[core], -1
	if ls.l1p&bit != 0 {
		w = l1.lookup(la)
		if st := l1.ways[w].state(); st == Modified || st == Exclusive {
			l1.touch(w)
			l1.ways[w].own()
			h.stats.L1Hits++
			ls.owner = uint8(core + 1)
			return h.cfg.L1Lat, false
		}
	}
	// Shared or absent: an upgrade or fetch-for-ownership must go
	// through the shared level and invalidate remote copies.
	dropped, invLat := h.invalidateOthers(core, la, ls, model)
	lat, coh := 0, dropped > 0
	if w >= 0 {
		// Held in S: upgrade. The way from the first probe still holds
		// la because invalidateOthers never touches the writer's own
		// caches.
		l1.ways[w].own()
		l1.touch(w)
		h.stats.Upgrades++
		lat = h.cfg.L3Lat
	} else if ls.l2p&bit != 0 {
		l2 := h.l2[core]
		w2 := l2.lookup(la)
		ln2 := &l2.ways[w2]
		if ln2.prefetched() {
			h.stats.PrefetchUseful++
		}
		*ln2 &^= prefetchedBit
		ln2.own()
		l2.touch(w2)
		h.fillL1(core, la, way(Modified), ls)
		h.stats.Upgrades++
		lat = h.cfg.L3Lat
	} else {
		var fcoh bool
		lat, fcoh = h.fetchShared(core, la, ls, model, true)
		coh = coh || fcoh
	}
	if coh {
		if invLat > lat {
			lat = invLat
		}
		if model {
			h.contend(ls, lat)
		}
	}
	ls.sharers = 1 << uint(core)
	ls.owner = uint8(core + 1)
	return lat, coh
}

// fetchShared services a private-cache miss from L3 or memory and fills
// the private levels. forOwnership fills in Modified state. A dirty-remote
// line triggers a cross-core transfer at CoherenceLat.
func (h *Hierarchy) fetchShared(core int, la uint64, ls *lineState, model, forOwnership bool) (int, bool) {
	lat := h.cfg.L3Lat
	coh := false
	if o := int(ls.owner) - 1; o >= 0 && o != core && ls.present(o) && h.holdsModified(o, la) {
		// Dirty-remote transfer: the owner's copy is downgraded (or
		// invalidated below, for ownership) and forwarded. Crossing a
		// socket boundary pays the QPI round trip.
		lat = h.cohLat(core, o)
		coh = true
		h.downgradeCore(o, la, ls)
		ls.owner = 0
		h.stats.DirtyTransfers++
		h.stats.L3Hits++
		if model {
			h.contend(ls, lat)
		}
	} else if ls.l3way1 == 0 {
		lat = h.cfg.DRAMLat
		h.stats.DRAMFills++
		h.stats.DRAMBytes += uint64(h.cfg.LineSize)
		h.insertL3(la, ls)
	} else {
		h.l3.touch(int(ls.l3way1 - 1))
		h.stats.L3Hits++
	}
	st := Shared
	if forOwnership {
		st = Modified
	} else if h.othersHolding(core, ls) == 0 {
		st = Exclusive
	} else {
		// MESI: a read while another core holds the line in E or M
		// downgrades the remote copies to S.
		h.downgradeOthers(core, la, ls)
	}
	h.fillL2(core, la, st, ls)
	h.fillL1(core, la, way(st), ls)
	ls.sharers |= 1 << uint(core)
	return lat, coh
}

// holdsModified reports whether core c holds la in Modified state. Callers
// gate it on ls.present(c), so the set scans nearly always hit.
func (h *Hierarchy) holdsModified(c int, la uint64) bool {
	return h.l1[c].holds(la, Modified) || h.l2[c].holds(la, Modified)
}

// othersHolding returns a mask of other cores that actually hold the line,
// scrubbing stale directory bits as a side effect. The exact presence masks
// make this one intersection; it is equivalent to probing every sharer's
// L1 and L2 as the pre-presence code did.
func (h *Hierarchy) othersHolding(core int, ls *lineState) uint32 {
	bit := uint32(1) << uint(core)
	actual := ls.sharers & (ls.l1p | ls.l2p) &^ bit
	ls.sharers = actual | (ls.sharers & bit)
	return actual
}

// invalidateOthers delivers invalidates to every other core actually
// holding la, returning how many copies were dropped and the worst-case
// round-trip latency among them (cross-socket invalidations are slower).
// With probability q an invalidate for a model line is ignored and the
// remote copy retained (stale) in Shared state — the obstinate cache.
func (h *Hierarchy) invalidateOthers(writer int, la uint64, ls *lineState, model bool) (dropped, lat int) {
	actual := h.othersHolding(writer, ls)
	if actual == 0 {
		return 0, 0
	}
	// Iterate cores in ascending order (TrailingZeros walks the mask
	// lowest bit first) so the obstinacy random draws happen in the same
	// order as the pre-presence per-core loop.
	for m := actual; m != 0; m &= m - 1 {
		c := bits.TrailingZeros32(m)
		if model && h.cfg.Obstinacy > 0 && h.randFloat() < h.cfg.Obstinacy {
			h.stats.InvalidatesIgnored++
			// The remote copy survives in S, now stale. The
			// directory forgets it, exactly like a cache that
			// acked the invalidate without acting on it.
			h.markStale(c, la, ls)
			continue
		}
		h.stats.Invalidates++
		h.dropLine(c, la, ls)
		dropped++
		if l := h.cohLat(writer, c); l > lat {
			lat = l
		}
	}
	ls.sharers &= 1 << uint(writer)
	if o := int(ls.owner) - 1; o >= 0 && o != writer {
		ls.owner = 0
	}
	return dropped, lat
}

// downgradeOthers moves every other core's E/M copy of la to S (dirty data
// is considered written back to the shared level).
func (h *Hierarchy) downgradeOthers(reader int, la uint64, ls *lineState) {
	m := ls.sharers & (ls.l1p | ls.l2p) &^ (1 << uint(reader))
	for ; m != 0; m &= m - 1 {
		h.downgradeCore(bits.TrailingZeros32(m), la, ls)
	}
	if o := int(ls.owner) - 1; o >= 0 && o != reader {
		ls.owner = 0
	}
}

// downgradeCore moves core c's copy of la to S.
func (h *Hierarchy) downgradeCore(c int, la uint64, ls *lineState) {
	bit := uint32(1) << uint(c)
	if ls.l1p&bit != 0 {
		l1 := h.l1[c]
		l1.ways[l1.lookup(la)].setState(Shared)
	}
	if ls.l2p&bit != 0 {
		l2 := h.l2[c]
		l2.ways[l2.lookup(la)].setState(Shared)
	}
}

// markStale downgrades core c's copy of la to a stale Shared line.
func (h *Hierarchy) markStale(c int, la uint64, ls *lineState) {
	bit := uint32(1) << uint(c)
	if ls.l1p&bit != 0 {
		l1 := h.l1[c]
		l1.ways[l1.lookup(la)].keepStale()
	}
	if ls.l2p&bit != 0 {
		l2 := h.l2[c]
		l2.ways[l2.lookup(la)].keepStale()
	}
}

// dropLine removes la from core c's private caches, clearing its presence
// bits.
func (h *Hierarchy) dropLine(c int, la uint64, ls *lineState) {
	bit := uint32(1) << uint(c)
	if ls.l2p&bit != 0 {
		l2 := h.l2[c]
		w := l2.lookup(la)
		if l2.ways[w].prefetched() {
			h.stats.PrefetchInvalidated++
		}
		l2.drop(w)
		ls.l2p &^= bit
	}
	if ls.l1p&bit != 0 {
		l1 := h.l1[c]
		l1.drop(l1.lookup(la))
		ls.l1p &^= bit
	}
}

// maybePrefetch issues sequential prefetches after a demand miss.
func (h *Hierarchy) maybePrefetch(core int, la uint64, model bool) {
	if !h.cfg.Prefetch || h.cfg.PrefetchDegree <= 0 {
		return
	}
	bit := uint32(1) << uint(core)
	l2 := h.l2[core]
	for k := 1; k <= h.cfg.PrefetchDegree; k++ {
		pa := la + uint64(k)
		ps := h.table.get(pa)
		if (ps.l1p|ps.l2p)&bit != 0 {
			continue
		}
		h.stats.PrefetchIssued++
		if model {
			h.stats.PrefetchIssuedModel++
		}
		if o := int(ps.owner) - 1; o >= 0 && o != core && ps.present(o) && h.holdsModified(o, pa) {
			// The line is being actively written by another core:
			// any prefetched copy is invalidated before use, so
			// the prefetch achieves nothing but snoop traffic on
			// an already-contended line.
			h.stats.PrefetchFutile++
			h.stats.PrefetchInvalidated++
			if model {
				h.contend(ps, h.cfg.CoherenceLat)
			}
			continue
		}
		if ps.l3way1 == 0 {
			h.stats.DRAMBytes += uint64(h.cfg.LineSize)
			h.insertL3(pa, ps)
		}
		if _, evAddr, ev := l2.insert(pa, way(Shared)|prefetchedBit); ev.state() != Invalid {
			h.evictedL2(core, evAddr, ev)
		}
		ps.l2p |= bit
		ps.sharers |= bit
	}
}

// fillL1 inserts la into core's L1 with low's state and stale bit,
// handling the eviction. ls is la's coherence record (presence
// bookkeeping).
func (h *Hierarchy) fillL1(core int, la uint64, low way, ls *lineState) {
	bit := uint32(1) << uint(core)
	_, evAddr, ev := h.l1[core].insert(la, low)
	ls.l1p |= bit
	if ev.state() != Invalid {
		es := h.table.get(evAddr)
		es.l1p &^= bit
		if ev.state() == Modified {
			// Dirty L1 victim falls back to L2.
			l2 := h.l2[core]
			if es.l2p&bit != 0 {
				l2.ways[l2.lookup(evAddr)].setState(Modified)
			} else {
				_, evAddr2, ev2 := l2.insert(evAddr, way(Modified))
				es.l2p |= bit
				if ev2.state() != Invalid {
					h.evictedL2(core, evAddr2, ev2)
				}
			}
		}
	}
}

// fillL2 inserts la into core's L2, handling the eviction.
func (h *Hierarchy) fillL2(core int, la uint64, st State, ls *lineState) {
	_, evAddr, ev := h.l2[core].insert(la, way(st))
	ls.l2p |= 1 << uint(core)
	if ev.state() != Invalid {
		h.evictedL2(core, evAddr, ev)
	}
}

// evictedL2 clears presence for an L2 victim and writes dirty victims back
// into the shared level.
func (h *Hierarchy) evictedL2(core int, evAddr uint64, ev way) {
	es := h.table.get(evAddr)
	es.l2p &^= 1 << uint(core)
	if ev.state() == Modified && es.l3way1 == 0 {
		h.insertL3(evAddr, es)
	}
}

// insertL3 fills la into the shared level, writing back dirty victims to
// memory. ls is la's coherence record; its l3way1 handle is set here.
func (h *Hierarchy) insertL3(la uint64, ls *lineState) {
	w, evAddr, ev := h.l3.insert(la, way(Shared))
	ls.l3way1 = uint32(w) + 1
	if ev.state() != Invalid {
		if ev.state() == Modified {
			h.stats.Writebacks++
			h.stats.DRAMBytes += uint64(h.cfg.LineSize)
		}
		// The line left the shared level: forget its directory,
		// dirty-owner and L3-position state (contention history
		// survives the window). Presence in private caches is real and
		// stays: this hierarchy is non-inclusive.
		es := h.table.get(evAddr)
		es.sharers = 0
		es.owner = 0
		es.l3way1 = 0
	}
}

// randFloat returns a uniform sample in [0, 1).
func (h *Hierarchy) randFloat() float64 {
	return float64(h.rng.Uint32()>>8) * (1.0 / (1 << 24))
}
