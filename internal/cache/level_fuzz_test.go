package cache

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// levelPair drives the packed level and the 16-byte reference level
// (level_ref_test.go) through the same operations.
type levelPair struct {
	t   *testing.T
	got *level
	ref *refLevel
}

// fits reports whether la's set-relative tag fits a packed way.
func (p *levelPair) fits(la uint64) bool { return la>>p.got.setBits < maxTag }

// refIndex is the index of a reference way in its level's line array.
func (p *levelPair) refIndex(ln *refLine) int {
	for i := range p.ref.lines {
		if &p.ref.lines[i] == ln {
			return i
		}
	}
	p.t.Fatal("reference way not in its level")
	return -1
}

// lookup checks that both levels find la in the same way with the same
// state and flags, or both miss; it returns the way's index or -1.
func (p *levelPair) lookup(la uint64) int {
	w := p.got.lookup(la)
	if !p.fits(la) {
		if w >= 0 {
			p.t.Fatalf("lookup(%#x): a tag too large for a way hit way %d", la, w)
		}
		return -1
	}
	ln := p.ref.lookup(la)
	if ln == nil {
		if w >= 0 {
			p.t.Fatalf("lookup(%#x): way %d hit, reference missed", la, w)
		}
		return -1
	}
	if i := p.refIndex(ln); w != i {
		p.t.Fatalf("lookup(%#x): way %d, reference way %d", la, w, i)
	}
	return w
}

// insert fills la in both levels and checks the victim's way, address,
// state and flags. An address whose tag does not fit must be refused.
func (p *levelPair) insert(la uint64, st State, stale, prefetched bool) {
	low := way(st)
	if stale {
		low |= staleBit
	}
	if prefetched {
		low |= prefetchedBit
	}
	if !p.fits(la) {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "beyond the tag range") {
				p.t.Fatalf("insert(%#x): a tag too large for a way was not refused (recovered %v)", la, r)
			}
		}()
		p.got.insert(la, low)
		return
	}
	w, evAddr, ev := p.got.insert(la, low)
	filled, rw, rev, had := p.ref.insert(la, st, false)
	filled.stale, filled.prefetched = stale, prefetched
	if w != int(rw) {
		p.t.Fatalf("insert(%#x): way %d, reference way %d", la, w, rw)
	}
	if (ev.state() != Invalid) != had {
		p.t.Fatalf("insert(%#x): victim %v, reference victim %v", la, ev.state() != Invalid, had)
	}
	if had && (evAddr != rev.addr() || ev.state() != rev.state || ev.stale() != rev.stale || ev.prefetched() != rev.prefetched) {
		p.t.Fatalf("insert(%#x): evicted %#x %v stale=%v prefetched=%v, reference %#x %v stale=%v prefetched=%v",
			la, evAddr, ev.state(), ev.stale(), ev.prefetched(), rev.addr(), rev.state, rev.stale, rev.prefetched)
	}
}

// same checks every way of the two levels: tag, state, flags and stamp.
func (p *levelPair) same() {
	if p.got.clock != p.ref.clock {
		p.t.Fatalf("clock %d, reference %d", p.got.clock, p.ref.clock)
	}
	for i, w := range p.got.ways {
		r := &p.ref.lines[i]
		if (w != 0) != (r.tag1 != 0) || p.got.lru[i] != r.lru {
			p.t.Fatalf("way %d: %#x stamp %d, reference tag1 %#x stamp %d", i, uint64(w), p.got.lru[i], r.tag1, r.lru)
		}
		if w == 0 {
			continue
		}
		set := uint64(i / p.got.assoc)
		if la := uint64(w>>tagShift-1)<<p.got.setBits | set; la != r.addr() || w.state() != r.state || w.stale() != r.stale || w.prefetched() != r.prefetched {
			p.t.Fatalf("way %d: %#x %v stale=%v prefetched=%v, reference %#x %v stale=%v prefetched=%v",
				i, la, w.state(), w.stale(), w.prefetched(), r.addr(), r.state, r.stale, r.prefetched)
		}
	}
}

// FuzzLevelMatchesReference holds the packed level to the 16-byte level it
// replaced: random insert, lookup, touch, invalidate and state-change
// sequences give the same hit or miss, victim way, victim address and
// victim state, and leave the same tags and stamps. The input picks the
// geometry and may push both clocks near their wrap, so that renormalize
// runs with live stamps. Addresses come from a few shared sets, the 1 TiB
// dataset region and the top of the address space, where a tag too large
// for a way must be refused (insert) or miss (lookup) and never alias.
func FuzzLevelMatchesReference(f *testing.F) {
	f.Add([]byte{0x31, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23})
	f.Add([]byte{0x07, 0xff, 5, 0x10, 1, 0, 0, 0, 0, 0, 0, 0x20, 1, 0, 0, 0, 0, 0, 0, 0x30, 1, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("\x93\x03renormalize: a full set, then ticks past the wrap"))
	f.Add([]byte("\xa2\x00\x00\xc1\xff\xff\xff\xff\xff\xff\xff\xc5\xff\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		// Geometry: 1..8 ways over 1, 2, 8 or 16 sets.
		assoc := int(in[0]&7) + 1
		sets := []int{1, 2, 8, 16}[in[0]>>3&3]
		p := &levelPair{t: t}
		var err error
		if p.got, err = newLevel(sets*assoc*64, assoc, 64); err != nil {
			t.Fatal(err)
		}
		if p.ref, err = newRefLevel(sets*assoc*64, assoc, 64, 0); err != nil {
			t.Fatal(err)
		}
		// A clock pushed to within in[1] ticks of its wrap.
		if in[0]&0x80 != 0 {
			p.got.clock = ^uint32(0) - 1 - uint32(in[1])
			p.ref.clock = p.got.clock
		}
		addr := func(b []byte) uint64 {
			var buf [8]byte
			copy(buf[:], b)
			v := binary.LittleEndian.Uint64(buf[:])
			switch b[0] >> 6 {
			case 0: // a handful of lines over a few sets: conflicts
				return v >> 8 % uint64(4*sets)
			case 1: // the dataset region at 1 TiB (line 2^34) and past it
				return 1<<34 + v>>8%uint64(8*sets) + v>>40<<35
			case 2: // the top of the packed tag range
				return (maxTag-2)<<p.got.setBits + v>>8%uint64(4*sets<<p.got.setBits)
			}
			return ^uint64(0) - v>>8%uint64(4*sets)
		}
		for ops := in[2:]; len(ops) > 0; {
			op := ops[0]
			n, la := min(len(ops), 9), uint64(0)
			if n > 1 {
				la = addr(ops[1:n])
			}
			ops = ops[n:]
			switch op & 7 {
			case 0, 1, 2:
				if p.lookup(la) < 0 {
					p.insert(la, State(op>>3&3%3+1), op&0x20 != 0, op&0x40 != 0)
				}
			case 3:
				// A duplicate fill: the hierarchy never makes one, but
				// both levels must still agree on it.
				p.insert(la, State(op>>3&3%3+1), false, op&0x40 != 0)
			case 4:
				if w := p.lookup(la); w >= 0 {
					p.got.touch(w)
					p.ref.touch(p.ref.lookup(la))
				}
			case 5:
				if w := p.lookup(la); w >= 0 {
					st := p.got.ways[w].state()
					p.got.drop(w)
					if rs := p.ref.invalidate(la); rs != st {
						t.Fatalf("invalidate(%#x): state %v, reference %v", la, st, rs)
					}
				}
			case 6:
				// The hierarchy's in-place transitions.
				if w := p.lookup(la); w >= 0 {
					ln, r := &p.got.ways[w], p.ref.lookup(la)
					switch op >> 3 & 3 {
					case 0:
						ln.own()
						r.state, r.stale = Modified, false
					case 1:
						ln.keepStale()
						r.state, r.stale = Shared, true
					case 2:
						ln.setState(Shared)
						r.state = Shared
					case 3:
						*ln &^= prefetchedBit
						r.prefetched = false
					}
				}
			case 7:
				// Jump both clocks forward to near the wrap.
				if c := ^uint32(0) - 1 - uint32(op>>3); p.got.clock < c {
					p.got.clock, p.ref.clock = c, c
				}
			}
			p.same()
		}
	})
}

// TestLevelRefusesOversizedTag pins the refusal at the edge of the tag
// range. Only levels of at most 16 sets have line addresses whose tag does
// not fit a way. The last address that fits is held; the first two that do
// not are refused by insert and missed by lookup, although cut to the
// way's 60 tag bits they would hit an empty way and the line with tag 0.
func TestLevelRefusesOversizedTag(t *testing.T) {
	for _, sets := range []int{1, 8} {
		l, err := newLevel(sets*4*64, 4, 64)
		if err != nil {
			t.Fatal(err)
		}
		last := (maxTag-1)<<l.setBits | uint64(sets-1)
		over, next := last+1, last+1+1<<l.setBits
		if over>>l.setBits != maxTag || next>>l.setBits != maxTag+1 || over&l.setMask != 0 {
			t.Fatalf("%d sets: %#x and %#x are not the first oversized tags of set 0", sets, over, next)
		}
		for _, la := range []uint64{last, 0, 1 << l.setBits} {
			l.insert(la, way(Shared))
			if l.lookup(la) < 0 {
				t.Fatalf("%d sets: %#x inserted but not found", sets, la)
			}
		}
		for _, la := range []uint64{over, next, ^uint64(0)} {
			if w := l.lookup(la); w >= 0 {
				t.Errorf("%d sets: lookup(%#x) hit way %d", sets, la, w)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%d sets: insert(%#x) was not refused", sets, la)
					}
				}()
				l.insert(la, way(Shared))
			}()
		}
	}
}

// TestDatasetRegionNeverAliases reads the dataset region at 1 TiB through
// the small test geometry, whose L1 has 8 sets (set-relative tags near
// 2^31): lines whose tags differ only above bit 32 stay distinct lines in
// every level.
func TestDatasetRegionNeverAliases(t *testing.T) {
	c := smallConfig()
	h, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if sets := h.l1[0].setMask + 1; sets != 8 {
		t.Fatalf("small L1 has %d sets, want 8", sets)
	}
	const base = 1 << 40
	far := uint64(base + 64<<35) // line 2^34 + 2^35: tag 2^31 + 2^32 in the L1
	if lat := h.Access(0, base, false, false); lat != c.DRAMLat {
		t.Fatalf("cold read at 1 TiB: latency %d, want DRAM %d", lat, c.DRAMLat)
	}
	if lat := h.Access(0, far, false, false); lat != c.DRAMLat {
		t.Fatalf("read of a line whose low 32 tag bits match a held line: latency %d, want DRAM %d", lat, c.DRAMLat)
	}
	for _, a := range []uint64{base, far} {
		if lat := h.Access(0, a, false, false); lat != c.L1Lat {
			t.Errorf("re-read of %#x: latency %d, want L1 %d", a, lat, c.L1Lat)
		}
	}
	if s := h.Stats(); s.DRAMFills != 2 || s.L1Hits != 2 {
		t.Errorf("stats %+v, want 2 DRAM fills and 2 L1 hits", s)
	}
}

// TestHierarchyRefusesOversizedLine checks the refusal end to end: with
// one-byte lines a byte address is a line address, and a one-set L1 cannot
// tag the top of the address space, so the access panics instead of
// filling a way that would alias another line.
func TestHierarchyRefusesOversizedLine(t *testing.T) {
	c := Config{Cores: 1, LineSize: 1, L1Size: 4, L1Assoc: 4, L1Lat: 4, L2Size: 64, L2Assoc: 4, L2Lat: 12,
		L3Size: 256, L3Assoc: 4, L3Lat: 36, DRAMLat: 200}
	h, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0, maxTag-1, false, false)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "beyond the tag range") {
			t.Errorf("access at the top of the address space: recovered %v, want a tag-range refusal", r)
		}
	}()
	h.Access(0, ^uint64(0), false, false)
}
