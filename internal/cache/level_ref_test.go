package cache

// level_ref_test.go keeps the set-associative level as it was before its
// ways were packed into 8 bytes: 16-byte ways with the LRU stamp, the MESI
// state and a model flag inline. FuzzLevelMatchesReference holds the packed
// level to it, operation by operation.

import (
	"fmt"
	"sort"
)

// refLine is one cache way, packed into 16 bytes so a 4-way L1 set is exactly
// one host cache line and the 45 MB simulated L3 array stays half the size
// it would be with naturally-padded fields.
type refLine struct {
	// tag1 is 1 + the line address, so the zero value marks an empty way
	// and a freshly made([]refLine) level is valid without an init pass over
	// the 737280-line L3 array (hierarchies are built per simulation
	// point, so that pass used to be hot). Lookup still needs only one
	// compare per way: no reachable line address collides with tag1 == 0.
	tag1 uint64
	// lru is a per-level use counter (see level.renormalize for wrap).
	lru   uint32
	state State
	// model marks lines belonging to the model region (obstinacy
	// applies only to these); stale marks a line retained by an ignored
	// invalidate; prefetched marks lines brought in by the prefetcher
	// and not yet demanded.
	model, stale, prefetched bool
}

// addr recovers the line address of a valid (tag1 != 0) way.
func (ln *refLine) addr() uint64 { return ln.tag1 - 1 }

// refLevel is one set-associative cache array.
type refLevel struct {
	setMask int
	assoc   int
	lines   []refLine
	clock   uint32
	lat     int
}

func newRefLevel(size, assoc, lineSize, lat int) (*refLevel, error) {
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
	return &refLevel{
		setMask: sets - 1,
		assoc:   assoc,
		lines:   make([]refLine, sets*assoc),
		lat:     lat,
	}, nil
}

// setOf returns the slice of ways for the address's set.
func (l *refLevel) setOf(lineAddr uint64) []refLine {
	s := int(lineAddr) & l.setMask
	return l.lines[s*l.assoc : (s+1)*l.assoc]
}

// lookup returns the way holding lineAddr, or nil.
func (l *refLevel) lookup(lineAddr uint64) *refLine {
	set := l.setOf(lineAddr)
	t := lineAddr + 1
	for i := range set {
		if set[i].tag1 == t {
			return &set[i]
		}
	}
	return nil
}

// insert fills lineAddr, evicting the LRU way. It returns a pointer to the
// filled way, the way's index in the level's line array (the handle stored
// in lineState.l3way1 for O(1) shared-level hits), the evicted refLine (by
// value) and whether an eviction of a valid line occurred.
func (l *refLevel) insert(lineAddr uint64, st State, model bool) (filled *refLine, way uint32, evicted refLine, hadVictim bool) {
	s := int(lineAddr) & l.setMask
	set := l.lines[s*l.assoc : (s+1)*l.assoc]
	// Empty ways always carry lru == 0 (tick counts from 1 and invalidate
	// resets the field), so a plain min-LRU scan selects the first empty
	// way when one exists — the same victim the explicit Invalid check
	// used to pick — with one branch per way instead of two.
	victim := 0
	min := set[0].lru
	for i := 1; i < len(set); i++ {
		if set[i].lru < min {
			min, victim = set[i].lru, i
		}
	}
	evicted = set[victim]
	hadVictim = evicted.state != Invalid
	set[victim] = refLine{tag1: lineAddr + 1, state: st, lru: l.tick(), model: model}
	return &set[victim], uint32(s*l.assoc + victim), evicted, hadVictim
}

// touch refreshes LRU for a hit way.
func (l *refLevel) touch(ln *refLine) {
	ln.lru = l.tick()
}

// tick advances the LRU clock, renormalizing before the uint32 wraps.
func (l *refLevel) tick() uint32 {
	l.clock++
	if l.clock == ^uint32(0) {
		l.renormalize()
	}
	return l.clock
}

// renormalize compresses the LRU counters while preserving their exact
// relative order (every live value came from a unique clock tick, so the
// rank mapping is a bijection and no victim choice ever changes). It runs
// once per ~4 billion touches of a level, which no single simulation
// approaches; the guard exists so the packed uint32 counter is safe even
// for pathological workloads.
func (l *refLevel) renormalize() {
	ranks := make([]uint32, 0, len(l.lines))
	for i := range l.lines {
		ranks = append(ranks, l.lines[i].lru)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	for i := range l.lines {
		lo, hi := 0, len(ranks)
		for lo < hi {
			mid := (lo + hi) / 2
			if ranks[mid] < l.lines[i].lru {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		l.lines[i].lru = uint32(lo) + 1
	}
	l.clock = uint32(len(ranks)) + 1
}

// invalidate removes lineAddr if present, returning the prior state.
func (l *refLevel) invalidate(lineAddr uint64) State {
	if ln := l.lookup(lineAddr); ln != nil {
		st := ln.state
		ln.state = Invalid
		ln.tag1 = 0
		ln.lru = 0 // keep the empty-way ⇒ lru == 0 invariant for insert
		return st
	}
	return Invalid
}
