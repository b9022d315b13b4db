package cache

import (
	"testing"
)

func smallConfig() Config {
	return Config{
		Cores:    4,
		LineSize: 64,
		L1Size:   1 << 10, L1Assoc: 2, L1Lat: 4,
		L2Size: 8 << 10, L2Assoc: 4, L2Lat: 12,
		L3Size: 256 << 10, L3Assoc: 8, L3Lat: 36,
		DRAMLat: 200,
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" {
		t.Error("state names wrong")
	}
}

func TestNewErrors(t *testing.T) {
	c := smallConfig()
	c.Cores = 0
	if _, err := New(c); err == nil {
		t.Error("zero cores should fail")
	}
	c = smallConfig()
	c.Obstinacy = 1.5
	if _, err := New(c); err == nil {
		t.Error("obstinacy > 1 should fail")
	}
	c = smallConfig()
	c.L1Size = 0
	if _, err := New(c); err == nil {
		t.Error("zero L1 should fail")
	}
}

func TestMissThenHit(t *testing.T) {
	h, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	lat := h.Access(0, 0x1000, false, false)
	if lat != 200 {
		t.Errorf("cold miss latency = %d, want DRAM 200", lat)
	}
	lat = h.Access(0, 0x1000, false, false)
	if lat != 4 {
		t.Errorf("re-access latency = %d, want L1 4", lat)
	}
	lat = h.Access(0, 0x1020, false, false) // same 64B line
	if lat != 4 {
		t.Errorf("same-line access latency = %d, want L1 4", lat)
	}
	s := h.Stats()
	if s.L1Hits != 2 || s.DRAMFills != 1 {
		t.Errorf("stats: %+v", s)
	}
}

func TestCapacitySpill(t *testing.T) {
	h, _ := New(smallConfig())
	// Touch 4 KB (> 1 KB L1, < 8 KB L2); second pass should mostly hit
	// in L2.
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			h.ResetStats()
		}
		for a := uint64(0); a < 4<<10; a += 64 {
			h.Access(0, a, false, false)
		}
	}
	s := h.Stats()
	if s.L2Hits < 32 {
		t.Errorf("second pass should hit L2: %+v", s)
	}
	if s.DRAMFills > 4 {
		t.Errorf("second pass should not re-fetch from DRAM: %+v", s)
	}
}

func TestL3Spill(t *testing.T) {
	h, _ := New(smallConfig())
	// 64 KB working set: fits L3, exceeds L2.
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			h.ResetStats()
		}
		for a := uint64(0); a < 64<<10; a += 64 {
			h.Access(0, a, false, false)
		}
	}
	s := h.Stats()
	if s.L3Hits < 500 {
		t.Errorf("second pass should hit L3: %+v", s)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	h, _ := New(smallConfig())
	addr := uint64(0x4000)
	h.Access(0, addr, false, true) // core 0 reads
	h.Access(1, addr, false, true) // core 1 reads: shared
	if lat := h.Access(1, addr, false, true); lat != 4 {
		t.Fatalf("core 1 should have an L1 copy, lat=%d", lat)
	}
	h.Access(0, addr, true, true) // core 0 writes: invalidates core 1
	if got := h.Stats().Invalidates; got != 1 {
		t.Errorf("Invalidates = %d, want 1", got)
	}
	if lat := h.Access(1, addr, false, true); lat <= 12 {
		t.Errorf("core 1 read after invalidate should miss privately, lat=%d", lat)
	}
}

func TestWriteUpgradeLatency(t *testing.T) {
	h, _ := New(smallConfig())
	addr := uint64(0x8000)
	h.Access(0, addr, false, true)
	h.Access(1, addr, false, true) // now shared by 0 and 1
	// Upgrading while a real remote copy exists is a coherence event at
	// the cross-core latency.
	lat, coh := h.AccessInfo(0, addr, true, true)
	if lat != h.Config().CoherenceLat || !coh {
		t.Errorf("upgrade with sharers: lat=%d coh=%v, want CoherenceLat %d", lat, coh, h.Config().CoherenceLat)
	}
	// Subsequent writes by the same core hit in M state.
	if lat := h.Access(0, addr, true, true); lat != 4 {
		t.Errorf("owned write latency = %d, want 4", lat)
	}
}

func TestObstinateCacheRetainsLines(t *testing.T) {
	c := smallConfig()
	c.Obstinacy = 1 // always ignore invalidates for model lines
	h, _ := New(c)
	addr := uint64(0x4000)
	h.Access(0, addr, false, true)
	h.Access(1, addr, false, true)
	h.Access(0, addr, true, true) // invalidate ignored by core 1
	s := h.Stats()
	if s.InvalidatesIgnored != 1 || s.Invalidates != 0 {
		t.Fatalf("expected ignored invalidate: %+v", s)
	}
	if lat := h.Access(1, addr, false, true); lat != 4 {
		t.Errorf("obstinate read latency = %d, want stale L1 hit 4", lat)
	}
	if h.Stats().StaleReads != 1 {
		t.Errorf("StaleReads = %d, want 1", h.Stats().StaleReads)
	}
}

func TestObstinacyOnlyAppliesToModelLines(t *testing.T) {
	c := smallConfig()
	c.Obstinacy = 1
	h, _ := New(c)
	addr := uint64(0x9000)
	h.Access(0, addr, false, false) // non-model
	h.Access(1, addr, false, false)
	h.Access(0, addr, true, false)
	s := h.Stats()
	if s.InvalidatesIgnored != 0 || s.Invalidates != 1 {
		t.Errorf("non-model lines must follow MESI: %+v", s)
	}
}

func TestObstinateWriteRegainsCoherence(t *testing.T) {
	c := smallConfig()
	c.Obstinacy = 1
	h, _ := New(c)
	addr := uint64(0x4000)
	h.Access(0, addr, false, true)
	h.Access(1, addr, false, true)
	h.Access(0, addr, true, true) // core 1 keeps a stale copy
	h.Access(1, addr, true, true) // core 1 writes: upgrade through L3
	// Core 1's line must no longer be stale.
	if lat := h.Access(1, addr, false, true); lat != 4 {
		t.Errorf("post-write read latency = %d", lat)
	}
	before := h.Stats().StaleReads
	h.Access(1, addr, false, true)
	if h.Stats().StaleReads != before {
		t.Error("write should clear staleness")
	}
}

func TestPrefetcherHelpsSequentialReads(t *testing.T) {
	base := smallConfig()
	run := func(pf bool) Stats {
		c := base
		c.Prefetch = pf
		c.PrefetchDegree = 2
		h, _ := New(c)
		for a := uint64(0); a < 32<<10; a += 64 {
			h.Access(0, a, false, false)
		}
		return h.Stats()
	}
	off := run(false)
	on := run(true)
	if on.PrefetchIssued == 0 || on.PrefetchUseful == 0 {
		t.Fatalf("prefetcher idle: %+v", on)
	}
	// With prefetching, sequential reads should be served faster on
	// average (demand misses become L2 hits).
	if on.Cycles >= off.Cycles {
		t.Errorf("prefetching should cut sequential read cycles: on=%d off=%d", on.Cycles, off.Cycles)
	}
}

func TestPrefetchedModelLinesGetInvalidated(t *testing.T) {
	// The Section 5.3 pathology: prefetched (model) lines are often
	// invalidated before use when another core writes the model.
	c := smallConfig()
	c.Prefetch = true
	c.PrefetchDegree = 4
	h, _ := New(c)
	// Core 1 streams through the model region, prefetching ahead.
	for a := uint64(0); a < 4<<10; a += 64 {
		h.Access(1, a, false, true)
		// Core 0 writes a line just ahead of core 1's stream.
		h.Access(0, a+128, true, true)
	}
	if h.Stats().PrefetchInvalidated == 0 {
		t.Errorf("expected invalidated prefetches: %+v", h.Stats())
	}
}

func TestDRAMTrafficAccounting(t *testing.T) {
	h, _ := New(smallConfig())
	for a := uint64(0); a < 8<<10; a += 64 {
		h.Access(0, a, false, false)
	}
	s := h.Stats()
	want := uint64(8 << 10)
	if s.DRAMBytes != want {
		t.Errorf("DRAMBytes = %d, want %d", s.DRAMBytes, want)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	h, _ := New(smallConfig())
	h.Access(0, 0x100, false, false)
	h.ResetStats()
	if h.Stats().Accesses != 0 {
		t.Error("stats not reset")
	}
	if lat := h.Access(0, 0x100, false, false); lat != 4 {
		t.Errorf("contents should survive reset, lat=%d", lat)
	}
}

func TestXeonConfig(t *testing.T) {
	c := XeonConfig()
	if c.Cores != 18 || c.L3Size != 45<<20 || c.L1Lat != 4 || c.L2Lat != 12 || c.L3Lat != 36 {
		t.Errorf("Xeon config drifted from the paper: %+v", c)
	}
	if _, err := New(c); err != nil {
		t.Fatalf("Xeon config must be constructible: %v", err)
	}
}

func TestPingPongIsExpensive(t *testing.T) {
	// Two cores alternately writing one line: every write is a remote
	// upgrade, the communication-bound pathology.
	h, _ := New(smallConfig())
	addr := uint64(0x2000)
	h.Access(0, addr, true, true)
	var total int
	const iters = 100
	for i := 0; i < iters; i++ {
		total += h.Access(i%2, addr, true, true)
	}
	if avg := float64(total) / iters; avg < 30 {
		t.Errorf("ping-pong average latency = %v, should pay shared-level trips", avg)
	}
}

func TestNUMACoherenceLatencies(t *testing.T) {
	c := smallConfig()
	c.CoresPerSocket = 2 // cores {0,1} and {2,3}
	h, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	local := h.Config().CoherenceLat
	remote := local * 5 / 2
	if remote <= local {
		t.Fatalf("remote latency %d should exceed local %d", remote, local)
	}
	// Core 0 writes; a same-socket reader pays the local transfer.
	h.Access(0, 0x4000, true, true)
	if lat, coh := h.AccessInfo(1, 0x4000, false, true); lat != local || !coh {
		t.Errorf("same-socket transfer lat=%d coh=%v, want %d", lat, coh, local)
	}
	// Core 0 writes again; a cross-socket reader pays the QPI trip.
	h.Access(0, 0x8000, true, true)
	if lat, coh := h.AccessInfo(2, 0x8000, false, true); lat != remote || !coh {
		t.Errorf("cross-socket transfer lat=%d coh=%v, want %d", lat, coh, remote)
	}
	// A cross-socket invalidating write pays the remote trip too.
	if lat, coh := h.AccessInfo(3, 0x8000, true, true); lat != remote || !coh {
		t.Errorf("cross-socket invalidation lat=%d coh=%v, want %d", lat, coh, remote)
	}
}

func TestNUMAConfigValidation(t *testing.T) {
	c := smallConfig()
	c.CoresPerSocket = -1
	if _, err := New(c); err == nil {
		t.Error("negative CoresPerSocket should fail")
	}
}
