package cache

import (
	"fmt"
	"testing"
)

// pinStream is one seeded SGD-shaped access stream: every core streams its
// private dataset window (at 1 TiB, 1 GiB apart, like trace.DefaultRegions)
// and then reads and read-modify-writes the shared model at address 0,
// sequentially (dense) or at seeded random lines (sparse).
type pinStream struct {
	name   string
	cfg    Config
	sparse bool
	// modelLines is the model's size in lines; dataLines the lines one
	// example streams; batch the examples per model update.
	modelLines, dataLines, batch int
	// warm steps run before ResetStats, meas steps after it.
	warm, meas int
}

func (p pinStream) run(t testing.TB) *Hierarchy {
	h, err := New(p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ls := uint64(p.cfg.LineSize)
	rng := uint64(0x9E3779B97F4A7C15) ^ p.cfg.Seed
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	idx := make([]uint64, p.dataLines)
	var offset uint64
	for step := 0; step < p.warm+p.meas; step++ {
		if step == p.warm {
			h.ResetStats()
		}
		for c := 0; c < p.cfg.Cores; c++ {
			base := 1<<40 + uint64(c)<<30 + offset
			for b := 0; b < p.batch; b++ {
				ex := base + uint64(b*p.dataLines)*ls
				for a := 0; a < p.dataLines; a++ {
					h.Access(c, ex+uint64(a)*ls+uint64(a%7)*8, false, false)
				}
				if p.sparse {
					for j := range idx {
						idx[j] = next() % uint64(p.modelLines) * ls
						h.Access(c, idx[j], false, true)
					}
					for _, a := range idx {
						h.Access(c, a, false, true)
						h.Access(c, a, true, true)
					}
					continue
				}
				for a := 0; a < p.modelLines; a++ {
					h.Access(c, uint64(a)*ls, false, true)
				}
			}
			if p.sparse {
				continue
			}
			for b := 0; b < p.batch; b++ {
				ex := base + uint64(b*p.dataLines)*ls
				for a := 0; a < p.dataLines; a++ {
					h.Access(c, ex+uint64(a)*ls, false, false)
				}
			}
			for a := 0; a < p.modelLines; a++ {
				h.Access(c, uint64(a)*ls, false, true)
				h.Access(c, uint64(a)*ls+4, true, true)
			}
		}
		offset += uint64((p.batch+1)*p.dataLines) * ls
	}
	return h
}

func pinStreams() []pinStream {
	xeon := func(cores int, prefetch bool, q float64, sockets int) Config {
		c := XeonConfig()
		c.Cores = cores
		c.Prefetch = prefetch
		c.Obstinacy = q
		c.Seed = 7
		if sockets > 1 {
			c.CoresPerSocket = (cores + sockets - 1) / sockets
		}
		return c
	}
	small := smallConfig()
	small.Prefetch = true
	small.PrefetchDegree = 2
	small.Obstinacy = 0.5
	small.Seed = 3
	return []pinStream{
		{"xeon1-dense", xeon(1, true, 0, 1), false, 4096, 1 << 17, 1, 2, 4},
		{"xeon1-dense-noprefetch", xeon(1, false, 0, 1), false, 4096, 4096, 1, 2, 3},
		{"xeon4-dense", xeon(4, true, 0, 1), false, 1024, 1024, 1, 2, 3},
		{"xeon4-sparse", xeon(4, true, 0, 1), true, 1 << 14, 256, 1, 3, 4},
		{"xeon4-sparse-noprefetch", xeon(4, false, 0, 1), true, 1 << 12, 256, 1, 3, 4},
		{"xeon18-dense", xeon(18, true, 0, 1), false, 256, 512, 1, 2, 3},
		{"xeon18-dense-q0.5", xeon(18, true, 0.5, 1), false, 256, 512, 1, 2, 3},
		{"xeon18-sparse-q0.5", xeon(18, true, 0.5, 1), true, 1 << 10, 128, 1, 2, 4},
		{"xeon18-dense-2sockets", xeon(18, true, 0, 2), false, 256, 512, 1, 2, 3},
		{"xeon4-dense-batch4", xeon(4, true, 0, 1), false, 1024, 512, 4, 2, 3},
		{"xeon4-sparse-batch4-q0.5", xeon(4, true, 0.5, 1), true, 1 << 12, 128, 4, 2, 3},
		{"small-dense", small, false, 96, 256, 1, 3, 5},
		{"small-sparse", small, true, 256, 160, 2, 3, 5},
	}
}

// TestHierarchyPinned holds the hierarchy to the counters it produced
// before its ways were packed: every field of Stats and the hottest line's
// contention, for dense and sparse streams on the Xeon geometry (1, 4 and
// 18 cores, prefetch on and off, obstinacy 0 and 0.5, two sockets, four
// examples per update) and on the small test geometry. Any change to a
// victim choice, a state transition or a counter moves a row.
func TestHierarchyPinned(t *testing.T) {
	want := map[string]string{
		"xeon1-dense":              `{Accesses:1097728 L1Hits:5464 L2Hits:720888 L3Hits:185692 DRAMFills:174764 Upgrades:10920 DirtyTransfers:0 Invalidates:0 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:720912 PrefetchIssuedModel:21856 PrefetchUseful:720888 PrefetchInvalidated:0 PrefetchFutile:0 DRAMBytes:33729536 Cycles:50703344} contention:0`,
		"xeon1-dense-noprefetch":   `{Accesses:61440 L1Hits:12288 L2Hits:0 L3Hits:36864 DRAMFills:12288 Upgrades:0 DirtyTransfers:0 Invalidates:0 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:0 PrefetchIssuedModel:0 PrefetchUseful:0 PrefetchInvalidated:0 PrefetchFutile:0 DRAMBytes:786432 Cycles:3833856} contention:0`,
		"xeon4-dense":              `{Accesses:61440 L1Hits:0 L2Hits:32760 L3Hits:12288 DRAMFills:4104 Upgrades:12288 DirtyTransfers:12288 Invalidates:12288 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:32764 PrefetchIssuedModel:24556 PrefetchUseful:8184 PrefetchInvalidated:24540 PrefetchFutile:24540 DRAMBytes:787968 Cycles:3425760} contention:4320`,
		"xeon4-sparse":             `{Accesses:16384 L1Hits:5841 L2Hits:3811 L3Hits:1825 DRAMFills:3052 Upgrades:1855 DirtyTransfers:733 Invalidates:1754 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:9088 PrefetchIssuedModel:6336 PrefetchUseful:3050 PrefetchInvalidated:2203 PrefetchFutile:1182 DRAMBytes:567744 Cycles:939470} contention:630`,
		"xeon4-sparse-noprefetch":  `{Accesses:16384 L1Hits:5811 L2Hits:999 L3Hits:2154 DRAMFills:5281 Upgrades:2139 DirtyTransfers:2139 Invalidates:2139 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:0 PrefetchIssuedModel:0 PrefetchUseful:0 PrefetchInvalidated:0 PrefetchFutile:0 DRAMBytes:337984 Cycles:1476992} contention:1080`,
		"xeon18-dense":             `{Accesses:96768 L1Hits:0 L2Hits:59886 L3Hits:13824 DRAMFills:9234 Upgrades:13824 DirtyTransfers:13824 Invalidates:13824 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:45954 PrefetchIssuedModel:27486 PrefetchUseful:18414 PrefetchInvalidated:27486 PrefetchFutile:27486 DRAMBytes:1772928 Cycles:5053752} contention:19440`,
		"xeon18-dense-q0.5":        `{Accesses:96768 L1Hits:0 L2Hits:66850 L3Hits:6860 DRAMFills:9234 Upgrades:13824 DirtyTransfers:6860 Invalidates:6852 InvalidatesIgnored:6972 StaleReads:0 Writebacks:0 PrefetchIssued:25262 PrefetchIssuedModel:6794 PrefetchUseful:18414 PrefetchInvalidated:6794 PrefetchFutile:6794 DRAMBytes:1772928 Cycles:4134072} contention:10260`,
		"xeon18-sparse-q0.5":       `{Accesses:36864 L1Hits:11394 L2Hits:7099 L3Hits:6744 DRAMFills:3096 Upgrades:8531 DirtyTransfers:6736 Invalidates:4298 InvalidatesIgnored:4312 StaleReads:2735 Writebacks:0 PrefetchIssued:16301 PrefetchIssuedModel:10109 PrefetchUseful:6441 PrefetchInvalidated:10146 PrefetchFutile:10092 DRAMBytes:594432 Cycles:1893432} contention:3420`,
		"xeon18-dense-2sockets":    `{Accesses:96768 L1Hits:0 L2Hits:59886 L3Hits:13824 DRAMFills:9234 Upgrades:13824 DirtyTransfers:13824 Invalidates:13824 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:45954 PrefetchIssuedModel:27486 PrefetchUseful:18414 PrefetchInvalidated:27486 PrefetchFutile:27486 DRAMBytes:1772928 Cycles:5468472} contention:21060`,
		"xeon4-dense-batch4":       `{Accesses:122880 L1Hits:0 L2Hits:90108 L3Hits:12288 DRAMFills:8196 Upgrades:12288 DirtyTransfers:12288 Invalidates:12288 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:40952 PrefetchIssuedModel:24560 PrefetchUseful:16380 PrefetchInvalidated:24540 PrefetchFutile:24540 DRAMBytes:1573632 Cycles:4932336} contention:4320`,
		"xeon4-sparse-batch4-q0.5": `{Accesses:24576 L1Hits:7811 L2Hits:6310 L3Hits:3568 DRAMFills:2157 Upgrades:4730 DirtyTransfers:2914 Invalidates:2662 InvalidatesIgnored:2661 StaleReads:806 Writebacks:0 PrefetchIssued:8825 PrefetchIssuedModel:4721 PrefetchUseful:4921 PrefetchInvalidated:4489 PrefetchFutile:3633 DRAMBytes:409664 Cycles:1127018} contention:990`,
		"small-dense":              `{Accesses:16000 L1Hits:0 L2Hits:8208 L3Hits:4152 DRAMFills:1720 Upgrades:1920 DirtyTransfers:1792 Invalidates:886 InvalidatesIgnored:906 StaleReads:0 Writebacks:0 PrefetchIssued:11726 PrefetchIssuedModel:4846 PrefetchUseful:8208 PrefetchInvalidated:3402 PrefetchFutile:3402 DRAMBytes:338688 Cycles:805700} contention:6390`,
		"small-sparse":             `{Accesses:25600 L1Hits:4238 L2Hits:9437 L3Hits:6867 DRAMFills:2142 Upgrades:2916 DirtyTransfers:1655 Invalidates:1227 InvalidatesIgnored:1234 StaleReads:0 Writebacks:0 PrefetchIssued:13507 PrefetchIssuedModel:9189 PrefetchUseful:5802 PrefetchInvalidated:3515 PrefetchFutile:3119 DRAMBytes:412224 Cycles:1065062} contention:4770`,
	}
	for _, p := range pinStreams() {
		h := p.run(t)
		got := fmt.Sprintf("%+v contention:%d", h.Stats(), h.MaxLineContention())
		if w, ok := want[p.name]; !ok || got != w {
			t.Errorf("%s:\n got %s\nwant %s", p.name, got, w)
		}
	}
}
