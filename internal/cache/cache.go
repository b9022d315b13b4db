// Package cache implements an event-driven multicore cache-hierarchy
// simulator in the role ZSim plays in the paper (Section 6.2): a MESI
// coherence protocol over per-core L1 and L2 caches and a shared L3, with
// the same geometry and latencies as the simulated Xeon E7-8890 v3
// (32 KB / 4-cycle L1, 256 KB / 12-cycle L2, 45 MB / 36-cycle shared L3).
//
// Two of the paper's mechanisms live here:
//
//   - a sequential hardware prefetcher that can be disabled (Section 5.3:
//     turning it off helps when the model is small, because prefetched
//     lines consume bandwidth and are often invalidated before use), and
//   - the obstinate cache (Section 6.2): when a private cache receives an
//     invalidate for a model line, with probability q (the obstinacy) it
//     retains the line in the shared state instead of invalidating it,
//     trading coherence (stale reads) for fewer stalls.
//
// Like ZSim, the simulator does not model bus congestion; invalidation
// stalls appear as extra shared-level round trips, which is sufficient to
// reproduce the small-model slowdown of Figure 6c.
package cache

import (
	"fmt"
	"math/bits"
	"slices"
)

// State is a MESI coherence state.
type State uint8

const (
	// Invalid: the line is not present/usable.
	Invalid State = iota
	// Shared: present, read-only, possibly in other caches.
	Shared
	// Exclusive: present, clean, in no other cache.
	Exclusive
	// Modified: present, dirty, in no other cache.
	Modified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Config describes the hierarchy geometry and behaviour.
type Config struct {
	Cores    int
	LineSize int

	L1Size, L1Assoc, L1Lat int
	L2Size, L2Assoc, L2Lat int
	L3Size, L3Assoc, L3Lat int
	// DRAMLat is the miss-to-memory latency in cycles.
	DRAMLat int
	// CoherenceLat is the cross-core round-trip paid by coherence
	// events: dirty-remote transfers and invalidation broadcasts
	// (Haswell-EX snoop latency is ~90 cycles). Zero selects the
	// default of 90.
	CoherenceLat int
	// CoresPerSocket partitions the cores into NUMA sockets: coherence
	// events between cores in different sockets pay the cross-socket
	// snoop round trip (QPI), 2.5x CoherenceLat, instead of
	// CoherenceLat. Zero means a single socket.
	CoresPerSocket int

	// Obstinacy is the probability q of ignoring an invalidate for a
	// model line (Section 6.2). Zero gives standard MESI.
	Obstinacy float64
	// Prefetch enables the sequential L2 prefetcher.
	Prefetch bool
	// PrefetchDegree is how many subsequent lines each miss prefetches.
	PrefetchDegree int

	Seed uint64
}

// XeonConfig returns the paper's simulated machine: an 18-core processor
// with the cache characteristics of the Xeon E7-8890 v3.
func XeonConfig() Config {
	return Config{
		Cores:    18,
		LineSize: 64,
		L1Size:   32 << 10, L1Assoc: 4, L1Lat: 4,
		L2Size: 256 << 10, L2Assoc: 8, L2Lat: 12,
		L3Size: 45 << 20, L3Assoc: 20, L3Lat: 36,
		DRAMLat:        200,
		CoherenceLat:   90,
		Prefetch:       true,
		PrefetchDegree: 2,
	}
}

// Stats aggregates simulator counters.
type Stats struct {
	Accesses  uint64
	L1Hits    uint64
	L2Hits    uint64
	L3Hits    uint64
	DRAMFills uint64
	// Upgrades counts writes that had to invalidate remote copies.
	Upgrades uint64
	// DirtyTransfers counts reads served by forwarding another core's
	// Modified line (the expensive cross-core path).
	DirtyTransfers uint64
	// Invalidates counts invalidate messages delivered to private
	// caches; InvalidatesIgnored counts those the obstinate cache
	// dropped (retaining the line in S).
	Invalidates        uint64
	InvalidatesIgnored uint64
	// StaleReads counts reads served from a line an obstinate cache
	// kept after ignoring an invalidate.
	StaleReads uint64
	// Writebacks counts dirty evictions to memory.
	Writebacks uint64
	// PrefetchIssued / PrefetchUseful / PrefetchInvalidated track the
	// sequential prefetcher; PrefetchIssuedModel counts the subset
	// aimed at the shared model region, which contend at the coherence
	// directory.
	PrefetchIssued      uint64
	PrefetchIssuedModel uint64
	PrefetchUseful      uint64
	PrefetchInvalidated uint64
	// PrefetchFutile counts prefetches aimed at a line another core is
	// actively writing: the fetched copy is invalidated before use, so
	// the request only generates snoop traffic (the Section 5.3
	// pathology).
	PrefetchFutile uint64
	// DRAMBytes is total traffic to memory (fills + writebacks + prefetches).
	DRAMBytes uint64
	// Cycles is the sum of access latencies charged.
	Cycles uint64
}

// way is one cache way packed into 8 bytes, so an 8-way L2 set is one host
// cache line and the 45 MB simulated L3's way array is 5 MB. The low four
// bits hold the MESI state, stale (a line kept by an ignored invalidate)
// and prefetched (brought in by the prefetcher and not yet demanded); the
// upper 60 bits hold 1 + the set-relative tag (the line address with the
// set index shifted out), so the zero way is empty and a freshly
// make([]way) level is valid without an init pass over the L3 array
// (hierarchies are built per simulation point). The LRU stamps live apart,
// in level.lru, so a hit's touch is a store that reads nothing.
type way uint64

const (
	stateBits     way = 3
	staleBit      way = 1 << 2
	prefetchedBit way = 1 << 3
	tagShift          = 4
	// A set-relative tag must be below maxTag, so that tag+1 fits the
	// upper 60 bits.
	maxTag = 1<<(64-tagShift) - 1
)

func (w way) state() State      { return State(w & stateBits) }
func (w way) stale() bool       { return w&staleBit != 0 }
func (w way) prefetched() bool  { return w&prefetchedBit != 0 }
func (w *way) setState(s State) { *w = *w&^stateBits | way(s) }

// own makes the way Modified and no longer stale.
func (w *way) own() { *w = *w&^(stateBits|staleBit) | way(Modified) }

// keepStale makes the way a stale Shared copy: an ignored invalidate.
func (w *way) keepStale() { *w = *w&^stateBits | way(Shared) | staleBit }

// level is one set-associative cache array: the ways, set after set, and
// in a second array indexed alike each way's LRU stamp. Every stamp is a
// unique tick of the level's clock except the empty ways' 0, so the
// smallest stamp of a set names its least recently used way, or its first
// empty one.
type level struct {
	ways    []way
	lru     []uint32
	setBits uint
	setMask uint64
	assoc   int
	clock   uint32
}

func newLevel(size, assoc, lineSize int) (*level, error) {
	if size <= 0 || assoc <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry")
	}
	nLines := size / lineSize
	if nLines < assoc {
		return nil, fmt.Errorf("cache: size %d too small for assoc %d", size, assoc)
	}
	sets := nLines / assoc
	// Round down to a power of two for cheap indexing.
	for sets&(sets-1) != 0 {
		sets--
	}
	return &level{
		ways:    make([]way, sets*assoc),
		lru:     make([]uint32, sets*assoc),
		setBits: uint(bits.TrailingZeros(uint(sets))),
		setMask: uint64(sets - 1),
		assoc:   assoc,
	}, nil
}

// lookup returns the index of the way holding line address la, or -1. An
// address whose tag does not fit a way is never held, so it misses rather
// than aliasing another line.
func (l *level) lookup(la uint64) int {
	t := la>>l.setBits + 1
	if t-1 >= maxTag {
		return -1
	}
	s := int(la&l.setMask) * l.assoc
	for i, w := range l.ways[s : s+l.assoc] {
		if uint64(w>>tagShift) == t {
			return s + i
		}
	}
	return -1
}

// holds reports whether the level holds la in state st.
func (l *level) holds(la uint64, st State) bool {
	w := l.lookup(la)
	return w >= 0 && l.ways[w].state() == st
}

// insert fills la into its set's least recently used way (the first empty
// one if any), with low holding the new way's state and flag bits. It
// returns the filled way's index (the handle lineState.l3way1 keeps for the
// shared level), and the evicted way and its line address; the eviction
// was of a valid line iff ev.state() != Invalid. An address whose tag does
// not fit a way panics: there is no way to hold it without aliasing.
func (l *level) insert(la uint64, low way) (w int, evAddr uint64, ev way) {
	t := la >> l.setBits
	if t >= maxTag {
		panic(fmt.Sprintf("cache: line address %#x is beyond the tag range of a %d-set level", la, l.setMask+1))
	}
	s := int(la&l.setMask) * l.assoc
	// The stamp goes above the way's index in one key, so the minimum
	// key is the first way with the smallest stamp: the choice of a
	// strict less-than scan. Keys stay below 2^63, so the sign of a
	// difference selects the minimum, and the victim way with it,
	// without a branch per way. Reading every way beside its stamp
	// costs a few more loads than reading the victim after the scan,
	// but none of them waits for the scan.
	stamps, ways := l.lru[s:s+l.assoc], l.ways[s:s+l.assoc]
	key, ev := int64(stamps[0])<<31, ways[0]
	for i := 1; i < len(stamps) && i < len(ways); i++ {
		d := (int64(stamps[i])<<31 | int64(i)) - key
		m := d >> 63
		key += d & m
		ev ^= (ev ^ ways[i]) & way(m)
	}
	w = s + int(key&(1<<31-1))
	evAddr = uint64(ev>>tagShift-1)<<l.setBits | la&l.setMask
	l.ways[w] = way(t+1)<<tagShift | low
	l.lru[w] = l.tick()
	return w, evAddr, ev
}

// touch marks way w most recently used.
func (l *level) touch(w int) {
	l.lru[w] = l.tick()
}

// drop empties way w. Its stamp returns to 0, the empty ways' stamp that
// insert relies on.
func (l *level) drop(w int) {
	l.ways[w] = 0
	l.lru[w] = 0
}

// tick advances the LRU clock, renormalizing before the uint32 wraps.
func (l *level) tick() uint32 {
	l.clock++
	if l.clock == ^uint32(0) {
		l.renormalize()
	}
	return l.clock
}

// renormalize replaces every stamp by 1 + the number of smaller stamps in
// the level. Every live stamp came from a unique clock tick, so the
// mapping keeps their exact order and no victim choice ever changes. It
// runs once per ~4 billion touches of a level, which no single simulation
// approaches; the guard exists so the packed uint32 counter is safe even
// for pathological workloads.
func (l *level) renormalize() {
	ranks := slices.Clone(l.lru)
	slices.Sort(ranks)
	for i, r := range l.lru {
		lo, _ := slices.BinarySearch(ranks, r)
		l.lru[i] = uint32(lo) + 1
	}
	l.clock = uint32(len(ranks)) + 1
}
