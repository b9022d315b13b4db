package machine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"buckwild/internal/kernels"
)

// TestSimulatePinned holds whole simulations to what they produced before
// the cache simulator's ways were packed: the bits of GNPS, the binding
// constraint, every field of the measurement window's cache.Stats and the
// hottest line's contention. The points cover dense and sparse layouts at
// 1, 4 and 18 threads, prefetch on and off, obstinacy 0 and 0.5, two
// sockets and four examples per update. The seed is one no other test uses,
// so each point's memory simulation runs here rather than coming from the
// memo.
func TestSimulatePinned(t *testing.T) {
	dense := func(m kernels.Prec, n, threads int) Workload {
		w := denseW(kernels.I8, m, n, threads)
		w.Seed = 41
		return w
	}
	sparse := func(m kernels.Prec, n, threads int) Workload {
		w := sparseW(kernels.I8, m, 16, n, threads)
		w.Seed = 41
		return w
	}
	with := func(w Workload, f func(*Workload)) Workload { f(&w); return w }
	cases := []struct {
		name string
		w    Workload
		want string
	}{
		{"dense-i8-n2^16-t1", dense(kernels.I8, 1<<16, 1),
			`gnps:0x400c000000000000 bound:memory {Accesses:15360 L1Hits:3072 L2Hits:11262 L3Hits:0 DRAMFills:1026 Upgrades:0 DirtyTransfers:0 Invalidates:0 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:2052 PrefetchIssuedModel:0 PrefetchUseful:2046 PrefetchInvalidated:0 PrefetchFutile:0 DRAMBytes:196992 Cycles:352632} contention:0`},
		{"dense-f32-n2^21-t2", dense(kernels.F32, 1<<21, 2),
			`gnps:0x401c000000000000 bound:memory {Accesses:2752512 L1Hits:253956 L2Hits:1294332 L3Hits:606210 DRAMFills:65538 Upgrades:532476 DirtyTransfers:24570 Invalidates:24570 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:1343490 PrefetchIssuedModel:1081338 PrefetchUseful:1294332 PrefetchInvalidated:49128 PrefetchFutile:49128 DRAMBytes:12583488 Cycles:73301664} contention:2160`},
		{"dense-i8-n2^20-t4", dense(kernels.I8, 1<<20, 4),
			`gnps:0x402c000000000000 bound:memory {Accesses:983040 L1Hits:49164 L2Hits:491508 L3Hits:229380 DRAMFills:65544 Upgrades:147444 DirtyTransfers:49128 Invalidates:49128 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:589836 PrefetchIssuedModel:327660 PrefetchUseful:491508 PrefetchInvalidated:98232 PrefetchFutile:98232 DRAMBytes:12584448 Cycles:38075040} contention:4320`},
		{"dense-i16-n2^14-t4", dense(kernels.I16, 1<<14, 4),
			`gnps:0x40188b6d292a76f0 bound:memory {Accesses:24576 L1Hits:0 L2Hits:11256 L3Hits:6144 DRAMFills:1032 Upgrades:6144 DirtyTransfers:6144 Invalidates:6144 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:14316 PrefetchIssuedModel:12252 PrefetchUseful:2040 PrefetchInvalidated:12252 PrefetchFutile:12252 DRAMBytes:198144 Cycles:1447392} contention:4320`},
		{"dense-i8-n2^12-t18", dense(kernels.I8, 1<<12, 18),
			`gnps:0x403c71c71c71c71d bound:communication {Accesses:17280 L1Hits:6912 L2Hits:2268 L3Hits:3456 DRAMFills:1188 Upgrades:3456 DirtyTransfers:3456 Invalidates:3456 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:9126 PrefetchIssuedModel:6750 PrefetchUseful:2268 PrefetchInvalidated:6750 PrefetchFutile:6750 DRAMBytes:228096 Cycles:914544} contention:19440`},
		{"dense-f32-n2^14-t4-noprefetch", with(dense(kernels.F32, 1<<14, 4), func(w *Workload) { w.Prefetch = false }),
			`gnps:0x4007b6ce14b7e43f bound:memory {Accesses:43008 L1Hits:0 L2Hits:15360 L3Hits:12288 DRAMFills:3072 Upgrades:12288 DirtyTransfers:12288 Invalidates:12288 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:0 PrefetchIssuedModel:0 PrefetchUseful:0 PrefetchInvalidated:0 PrefetchFutile:0 DRAMBytes:196608 Cycles:3010560} contention:2160`},
		{"dense-i8-n2^12-t18-q0.5", with(dense(kernels.I8, 1<<12, 18), func(w *Workload) { w.Obstinacy = 0.5 }),
			`gnps:0x404d1745d1745d18 bound:bandwidth {Accesses:17280 L1Hits:8595 L2Hits:2268 L3Hits:1773 DRAMFills:1188 Upgrades:3456 DirtyTransfers:1773 Invalidates:1786 InvalidatesIgnored:1670 StaleReads:3366 Writebacks:0 PrefetchIssued:4178 PrefetchIssuedModel:1802 PrefetchUseful:2268 PrefetchInvalidated:1802 PrefetchFutile:1802 DRAMBytes:228096 Cycles:679626} contention:9450`},
		{"dense-i8-n2^14-t18-2sockets", with(dense(kernels.I8, 1<<14, 18), func(w *Workload) { w.Sockets = 2 }),
			`gnps:0x40377173930173a4 bound:memory {Accesses:69120 L1Hits:27648 L2Hits:9180 L3Hits:13824 DRAMFills:4644 Upgrades:13824 DirtyTransfers:13824 Invalidates:13824 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:36774 PrefetchIssuedModel:27486 PrefetchUseful:9180 PrefetchInvalidated:27486 PrefetchFutile:27486 DRAMBytes:891648 Cycles:4052592} contention:21060`},
		{"dense-i8-n2^12-t4-batch4", with(dense(kernels.I8, 1<<12, 4), func(w *Workload) { w.MiniBatch = 4 }),
			`gnps:0x402c000000000000 bound:memory {Accesses:10752 L1Hits:6144 L2Hits:2040 L3Hits:768 DRAMFills:1032 Upgrades:768 DirtyTransfers:768 Invalidates:768 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:3564 PrefetchIssuedModel:1500 PrefetchUseful:2040 PrefetchInvalidated:1500 PrefetchFutile:1500 DRAMBytes:198144 Cycles:393696} contention:4320`},
		{"sparse-i8-n2^17-t1", sparse(kernels.I8, 1<<17, 1),
			`gnps:0x3fd64de0bf967a06 bound:memory {Accesses:35943 L1Hits:17657 L2Hits:18048 L3Hits:0 DRAMFills:191 Upgrades:47 DirtyTransfers:0 Invalidates:0 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:373 PrefetchIssuedModel:1 PrefetchUseful:416 PrefetchInvalidated:0 PrefetchFutile:0 DRAMBytes:36096 Cycles:327096} contention:0`},
		{"sparse-i16-n2^20-t4", sparse(kernels.I16, 1<<20, 4),
			`gnps:0x3fd4566283f99bfc bound:memory {Accesses:1150152 L1Hits:318232 L2Hits:93718 L3Hits:661363 DRAMFills:5904 Upgrades:70935 DirtyTransfers:18261 Invalidates:46363 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:1232783 PrefetchIssuedModel:1220975 PrefetchUseful:68757 PrefetchInvalidated:80665 PrefetchFutile:52563 DRAMBytes:1133568 Cycles:33376930} contention:3150`},
		{"sparse-i8-n2^15-t4-noprefetch", with(sparse(kernels.I8, 1<<15, 4), func(w *Workload) { w.Prefetch = false }),
			`gnps:0x3fdd01acc5392678 bound:memory {Accesses:35952 L1Hits:24995 L2Hits:1 L3Hits:5196 DRAMFills:564 Upgrades:5196 DirtyTransfers:5196 Invalidates:5196 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:0 PrefetchIssuedModel:0 PrefetchUseful:0 PrefetchInvalidated:0 PrefetchFutile:0 DRAMBytes:36096 Cycles:1148072} contention:2160`},
		{"sparse-i8-n2^12-t18-q0.5", with(sparse(kernels.I8, 1<<12, 18), func(w *Workload) { w.Obstinacy = 0.5 }),
			`gnps:0x40016db6db6db6dc bound:communication {Accesses:20088 L1Hits:15297 L2Hits:218 L3Hits:1512 DRAMFills:108 Upgrades:2953 DirtyTransfers:1512 Invalidates:1531 InvalidatesIgnored:1422 StaleReads:4655 Writebacks:0 PrefetchIssued:1087 PrefetchIssuedModel:871 PrefetchUseful:218 PrefetchInvalidated:871 PrefetchFutile:871 DRAMBytes:20736 Cycles:410466} contention:7560`},
		{"sparse-i16-n2^14-t18-2sockets", with(sparse(kernels.I16, 1<<14, 18), func(w *Workload) { w.Sockets = 2 }),
			`gnps:0x3fe364efdfa737b7 bound:memory {Accesses:80838 L1Hits:45420 L2Hits:864 L3Hits:17061 DRAMFills:432 Upgrades:17061 DirtyTransfers:17061 Invalidates:17061 InvalidatesIgnored:0 StaleReads:0 Writebacks:0 PrefetchIssued:24475 PrefetchIssuedModel:23611 PrefetchUseful:864 PrefetchInvalidated:23609 PrefetchFutile:23609 DRAMBytes:82944 Cycles:4178328} contention:13410`},
		{"sparse-i8-n2^14-t4-batch4-q0.5", with(sparse(kernels.I8, 1<<14, 4), func(w *Workload) { w.MiniBatch = 4; w.Obstinacy = 0.5 }),
			`gnps:0x400277db8185c88f bound:compute {Accesses:71856 L1Hits:66063 L2Hits:768 L3Hits:1569 DRAMFills:384 Upgrades:3072 DirtyTransfers:1569 Invalidates:1592 InvalidatesIgnored:1480 StaleReads:4821 Writebacks:0 PrefetchIssued:1572 PrefetchIssuedModel:804 PrefetchUseful:768 PrefetchInvalidated:804 PrefetchFutile:804 DRAMBytes:73728 Cycles:688038} contention:2430`},
	}
	mc := Xeon()
	for _, tc := range cases {
		r, err := Simulate(mc, tc.w)
		if err != nil {
			t.Fatal(tc.name, err)
		}
		// The memory phase is memoised: resolving the hierarchy the way
		// SimulateCtx does reads back the run above, contention included.
		w := tc.w
		if w.MiniBatch < 1 {
			w.MiniBatch = 1
		}
		cc := mc.Cache
		cc.Cores = w.Threads
		cc.Prefetch = w.Prefetch
		cc.Obstinacy = w.Obstinacy
		cc.Seed = w.Seed
		if w.Sockets > 1 {
			cc.CoresPerSocket = (w.Threads + w.Sockets - 1) / w.Sockets
		}
		mem, err := memSimulate(context.Background(), w, cc, mc.MLP, min(w.ModelSize, mc.MaxSimElements))
		if err != nil {
			t.Fatal(tc.name, err)
		}
		if mem.stats != r.Stats {
			t.Fatalf("%s: memo read back other stats than the run: %+v vs %+v", tc.name, mem.stats, r.Stats)
		}
		got := fmt.Sprintf("gnps:%#x bound:%s %+v contention:%d", math.Float64bits(r.GNPS), r.Bound, r.Stats, mem.maxContention)
		if got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
