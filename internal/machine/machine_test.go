package machine

import (
	"strings"
	"testing"

	"buckwild/internal/dmgc"
	"buckwild/internal/kernels"
)

// denseW builds a standard dense workload.
func denseW(d, m kernels.Prec, n, threads int) Workload {
	return Workload{
		D: d, M: m,
		Variant:     kernels.HandOpt,
		Quant:       kernels.QShared,
		QuantPeriod: 8,
		ModelSize:   n,
		Threads:     threads,
		Prefetch:    true,
		Seed:        1,
	}
}

func sparseW(d, m kernels.Prec, idxBits uint, n, threads int) Workload {
	w := denseW(d, m, n, threads)
	w.Sparse = true
	w.IdxBits = idxBits
	w.Density = 0.03
	return w
}

func gnps(t *testing.T, w Workload) float64 {
	t.Helper()
	r, err := Simulate(Xeon(), w)
	if err != nil {
		t.Fatal(err)
	}
	if r.GNPS <= 0 {
		t.Fatalf("non-positive GNPS: %+v", r)
	}
	return r.GNPS
}

// TestSignatureWorkloadRefusesGAndC: the simulator prices neither
// gradient rounding nor communication, so a G or C term narrower than
// 32 bits is refused with a machine: error naming the signature (the C
// error points at the cluster tier) instead of simulating the signature
// without it. A 32-bit term is full precision and lowers like an absent
// one.
func TestSignatureWorkloadRefusesGAndC(t *testing.T) {
	for _, c := range []struct{ sig, want string }{
		{"D8M16G10", "no G term"},
		{"G4", "no G term"},
		{"D8M8C8", "cluster tier"},
		{"D8M8C1s", "cluster tier"},
		{"D32fM32fC16f", "cluster tier"},
	} {
		_, err := SignatureWorkload(dmgc.MustParse(c.sig), 4096, 1)
		if err == nil || !strings.HasPrefix(err.Error(), "machine: "+c.sig+": ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a machine: error naming it and saying %q", c.sig, err, c.want)
		}
	}
	base, err := SignatureWorkload(dmgc.MustParse("D8M8"), 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"D8M8G32", "D8M8C32", "D8M8C32f"} {
		if w, err := SignatureWorkload(dmgc.MustParse(s), 4096, 1); err != nil || w != base {
			t.Errorf("%s: %+v, %v; want D8M8's workload", s, w, err)
		}
	}
}

func TestValidation(t *testing.T) {
	mc := Xeon()
	if _, err := Simulate(mc, Workload{Threads: 0, ModelSize: 10, D: kernels.F32, M: kernels.F32}); err == nil {
		t.Error("zero threads should fail")
	}
	if _, err := Simulate(mc, Workload{Threads: 1, ModelSize: 0, D: kernels.F32, M: kernels.F32}); err == nil {
		t.Error("zero model should fail")
	}
	w := sparseW(kernels.I8, kernels.I8, 8, 1024, 1)
	w.Density = 0
	if _, err := Simulate(mc, w); err == nil {
		t.Error("zero density should fail")
	}
	mc.Cost = nil
	if _, err := Simulate(mc, denseW(kernels.I8, kernels.I8, 1024, 1)); err == nil {
		t.Error("nil cost model should fail")
	}
}

func TestDenseLowPrecisionSpeedup(t *testing.T) {
	// Table 2 shape: dense throughput ordering D8M8 > D16M16 > D32fM32f,
	// with near-linear speedup for 8-bit (paper: 3.57x).
	const n = 1 << 18
	g32 := gnps(t, denseW(kernels.F32, kernels.F32, n, 1))
	g16 := gnps(t, denseW(kernels.I16, kernels.I16, n, 1))
	g8 := gnps(t, denseW(kernels.I8, kernels.I8, n, 1))
	if !(g8 > g16 && g16 > g32) {
		t.Errorf("ordering violated: 8=%v 16=%v 32=%v", g8, g16, g32)
	}
	if ratio := g8 / g32; ratio < 2 || ratio > 6 {
		t.Errorf("D8M8/D32f = %.2f, paper shows ~3.6", ratio)
	}
	if ratio := g16 / g32; ratio < 1.3 || ratio > 3.5 {
		t.Errorf("D16M16/D32f = %.2f, paper shows ~1.9", ratio)
	}
}

func TestSparseNearlyFlat(t *testing.T) {
	// Table 2: sparse throughput is nearly flat across precisions and
	// far below dense. Base throughputs are plateau values, so use a
	// model too large for the L2 at either precision.
	const n = 1 << 20
	s32 := gnps(t, sparseW(kernels.F32, kernels.F32, 32, n, 1))
	s8 := gnps(t, sparseW(kernels.I8, kernels.I8, 8, n, 1))
	if ratio := s8 / s32; ratio < 0.8 || ratio > 3 {
		t.Errorf("sparse D8/D32f = %.2f, paper shows ~1.6", ratio)
	}
	d8 := gnps(t, denseW(kernels.I8, kernels.I8, n, 1))
	if d8 < 3*s8 {
		t.Errorf("dense (%v) should be far faster than sparse (%v)", d8, s8)
	}
}

func TestThreadScalingRegimes(t *testing.T) {
	// Figure 2: threads help large models (bandwidth-bound) far more
	// than small ones (communication-bound).
	big1 := gnps(t, denseW(kernels.I8, kernels.I8, 1<<21, 1))
	big18 := gnps(t, denseW(kernels.I8, kernels.I8, 1<<21, 18))
	small18 := gnps(t, denseW(kernels.I8, kernels.I8, 1<<10, 18))
	if big18 < 2*big1 {
		t.Errorf("18 threads should speed up a large model: 1t=%v 18t=%v", big1, big18)
	}
	if big18 < 2*small18 {
		t.Errorf("communication-bound small model should be much slower: big=%v small=%v", big18, small18)
	}
	r, err := Simulate(Xeon(), denseW(kernels.I8, kernels.I8, 1<<10, 18))
	if err != nil {
		t.Fatal(err)
	}
	if r.Bound != "communication" {
		t.Errorf("small shared model at 18 threads should be communication-bound, got %q", r.Bound)
	}
}

func TestHandOptBeatsGenericEndToEnd(t *testing.T) {
	// Figure 4a at the machine level.
	const n = 1 << 18
	w := denseW(kernels.I8, kernels.I8, n, 1)
	w.Variant = kernels.Generic
	g := gnps(t, w)
	h := gnps(t, denseW(kernels.I8, kernels.I8, n, 1))
	if ratio := h / g; ratio < 1.5 {
		t.Errorf("handopt end-to-end gain = %.2f, want > 1.5", ratio)
	}
}

func TestNewInstructionsGainIsModest(t *testing.T) {
	// Section 6.1: the end-to-end gain is modest (the paper measures
	// 5-15%) because memory limits the kernel. Use a thread count where
	// the machine is memory- rather than compute-bound.
	const n, threads = 1 << 20, 4
	h := gnps(t, denseW(kernels.I8, kernels.I8, n, threads))
	w := denseW(kernels.I8, kernels.I8, n, threads)
	w.Variant = kernels.NewInsn
	w.Quant = kernels.QHardware
	p := gnps(t, w)
	gain := p/h - 1
	if gain < 0 || gain > 0.6 {
		t.Errorf("new-instruction end-to-end gain = %.1f%%, want modest (paper: 5-15%%)", gain*100)
	}
}

func TestPrefetchTradeoffByModelSize(t *testing.T) {
	// Figure 6a: disabling the prefetcher helps small (communication-
	// bound) models at high thread counts and does not help large ones.
	small := denseW(kernels.I8, kernels.I8, 1<<10, 18)
	smallOn := gnps(t, small)
	small.Prefetch = false
	smallOff := gnps(t, small)
	big := denseW(kernels.I8, kernels.I8, 1<<19, 18)
	bigOn := gnps(t, big)
	big.Prefetch = false
	bigOff := gnps(t, big)
	if smallOff <= smallOn*0.98 {
		t.Errorf("prefetch off should help small models: on=%v off=%v", smallOn, smallOff)
	}
	if bigOff > bigOn*1.1 {
		t.Errorf("prefetch off should not help large models much: on=%v off=%v", bigOn, bigOff)
	}
}

func TestObstinateCacheHelpsSmallModels(t *testing.T) {
	// Figure 6c: at q around 50%, the small-model slowdown largely
	// disappears.
	w := denseW(kernels.I8, kernels.I8, 1<<10, 18)
	q0 := gnps(t, w)
	w.Obstinacy = 0.5
	q50 := gnps(t, w)
	if q50 < q0*1.1 {
		t.Errorf("obstinate cache should help: q=0 %v, q=0.5 %v", q0, q50)
	}
	w.Obstinacy = 0.95
	q95 := gnps(t, w)
	if q95 < q50*0.9 {
		t.Errorf("higher obstinacy should not hurt: q50=%v q95=%v", q50, q95)
	}
}

func TestMiniBatchHelpsSmallModels(t *testing.T) {
	// Figure 6d: larger B amortizes invalidations for small models.
	w := denseW(kernels.I8, kernels.I8, 1<<10, 18)
	b1 := gnps(t, w)
	w.MiniBatch = 16
	b16 := gnps(t, w)
	if b16 < b1*1.2 {
		t.Errorf("mini-batching should help small models: B=1 %v, B=16 %v", b1, b16)
	}
}

func TestFourBitVsEightBit(t *testing.T) {
	// Figure 5c: D4M4 about 2x D8M8 (compute side; memory narrows it).
	const n = 1 << 18
	w := denseW(kernels.I4, kernels.I4, n, 1)
	w.Variant = kernels.NewInsn
	g4 := gnps(t, w)
	g8 := gnps(t, denseW(kernels.I8, kernels.I8, n, 1))
	if ratio := g4 / g8; ratio < 1.2 || ratio > 3 {
		t.Errorf("D4M4/D8M8 = %.2f, paper shows ~2", ratio)
	}
}

func TestLargeModelCapScalesConsistently(t *testing.T) {
	// Above MaxSimElements throughput must stay roughly flat (the
	// bandwidth-bound plateau), validating the scaling shortcut.
	mc := Xeon()
	mc.MaxSimElements = 1 << 16
	w := denseW(kernels.I8, kernels.I8, 1<<16, 1)
	r1, err := Simulate(mc, w)
	if err != nil {
		t.Fatal(err)
	}
	w.ModelSize = 1 << 20
	r2, err := Simulate(mc, w)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r2.GNPS / r1.GNPS
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("capped scaling changed throughput: %v vs %v", r1.GNPS, r2.GNPS)
	}
	if r2.CyclesPerRound < 15*r1.CyclesPerRound {
		t.Error("round time should scale with true model size")
	}
}

func TestResultFieldsPopulated(t *testing.T) {
	r, err := Simulate(Xeon(), denseW(kernels.I8, kernels.I8, 1<<14, 4))
	if err != nil {
		t.Fatal(err)
	}
	switch r.Bound {
	case "compute", "memory", "bandwidth", "communication":
	default:
		t.Errorf("Bound = %q", r.Bound)
	}
	if r.ComputeCyclesPerStep <= 0 || r.MemCyclesPerStep <= 0 || r.CyclesPerRound <= 0 {
		t.Errorf("cycles not populated: %+v", r)
	}
	if r.Stats.Accesses == 0 {
		t.Error("cache stats missing")
	}
}

func TestDeterministicGNPS(t *testing.T) {
	w := denseW(kernels.I8, kernels.I8, 1<<12, 4)
	a := gnps(t, w)
	b := gnps(t, w)
	if a != b {
		t.Errorf("simulation not deterministic: %v vs %v", a, b)
	}
}

func TestNUMATradeoff(t *testing.T) {
	// Two sockets double the DRAM bandwidth for large (bandwidth-bound)
	// models but make small-model coherence ping-pong cross the QPI,
	// which is slower. Use enough threads that socket bandwidth, not
	// the per-core streaming limit, is the binding resource.
	big := denseW(kernels.I8, kernels.I8, 1<<21, 24)
	big1 := gnps(t, big)
	big.Sockets = 2
	big2 := gnps(t, big)
	if big2 < big1*1.2 {
		t.Errorf("two sockets should lift the bandwidth plateau: 1s=%v 2s=%v", big1, big2)
	}
	small := denseW(kernels.I8, kernels.I8, 1<<9, 18)
	small1 := gnps(t, small)
	small.Sockets = 2
	small2 := gnps(t, small)
	if small2 > small1 {
		t.Errorf("cross-socket ping-pong should hurt small models: 1s=%v 2s=%v", small1, small2)
	}
}

func TestSparseMiniBatch(t *testing.T) {
	w := sparseW(kernels.I8, kernels.I8, 16, 1<<12, 4)
	w.MiniBatch = 8
	r, err := Simulate(Xeon(), w)
	if err != nil {
		t.Fatal(err)
	}
	if r.GNPS <= 0 {
		t.Fatalf("sparse mini-batch simulation broken: %+v", r)
	}
}

func TestMeasuredStepsCountsAllCores(t *testing.T) {
	// MeasuredSteps is the total number of per-core steps in the window:
	// one step per core per measured round.
	const threads = 4
	r, err := Simulate(Xeon(), denseW(kernels.I8, kernels.I8, 1<<12, threads))
	if err != nil {
		t.Fatal(err)
	}
	if want := measRounds * threads; r.MeasuredSteps != want {
		t.Errorf("MeasuredSteps = %d, want %d (%d rounds x %d cores)", r.MeasuredSteps, want, measRounds, threads)
	}
}

func TestStepStreamBytesCeilsFractionalWidths(t *testing.T) {
	// Integral per-step byte counts round to lines exactly as before.
	d := Workload{D: kernels.I8, ModelSize: 1000, MiniBatch: 1}
	if got := stepStreamBytes(d, 1000); got != 2048 { // 1000 B -> 16 lines, x(B+1)
		t.Errorf("dense integral stream bytes = %d, want 2048", got)
	}
	// A packed 4-bit dense stream of 129 elements is 64.5 bytes: the
	// partial second line must still be streamed (two lines), where the
	// old truncate-then-round computed one.
	d4 := Workload{D: kernels.I4, ModelSize: 129, MiniBatch: 1}
	if got := stepStreamBytes(d4, 129); got != 256 {
		t.Errorf("dense fractional stream bytes = %d, want 256", got)
	}
	// Sparse path: 43 nonzeros at 1.5 bytes each (4-bit values, 8-bit
	// indexes) is 64.5 bytes -> two lines, same ceil rule.
	s := Workload{Sparse: true, D: kernels.I4, IdxBits: 8, Density: 0.043, ModelSize: 1000, MiniBatch: 1}
	if got := stepStreamBytes(s, 1000); got != 256 {
		t.Errorf("sparse fractional stream bytes = %d, want 256", got)
	}
}

func TestComputeCyclesMemoized(t *testing.T) {
	mc := Xeon()
	w := denseW(kernels.I8, kernels.I8, 1<<14, 1)
	elems, cycles, err := computeCycles(mc, w, w.ModelSize)
	if err != nil {
		t.Fatal(err)
	}
	be, bc, err := buildStreamCost(mc, w, w.ModelSize)
	if err != nil {
		t.Fatal(err)
	}
	if elems != be || cycles != bc {
		t.Errorf("memoized (%d, %v) != built (%d, %v)", elems, cycles, be, bc)
	}
	// A fresh but equal cost model must share the cache entry (keys are
	// by value), and repeated lookups must be stable.
	mc2 := Xeon()
	e2, c2, err := computeCycles(mc2, w, w.ModelSize)
	if err != nil {
		t.Fatal(err)
	}
	if e2 != elems || c2 != cycles {
		t.Errorf("cache lookup drifted: (%d, %v) vs (%d, %v)", e2, c2, elems, cycles)
	}
	// Points that differ in a stream-relevant axis must not collide.
	w16 := denseW(kernels.I16, kernels.I16, 1<<14, 1)
	_, c16, err := computeCycles(mc, w16, w16.ModelSize)
	if err != nil {
		t.Fatal(err)
	}
	if c16 == cycles {
		t.Error("distinct precisions should cost differently")
	}
}

func TestFreshBytesPerStep(t *testing.T) {
	d := Workload{D: kernels.I8, ModelSize: 1000, MiniBatch: 2}
	if got := freshBytesPerStep(d, 1000); got != 2000 {
		t.Errorf("dense fresh bytes = %v, want 2000", got)
	}
	s := Workload{Sparse: true, D: kernels.I8, IdxBits: 16, Density: 0.03, MiniBatch: 1}
	if got := freshBytesPerStep(s, 1000); got != 90 { // 30 nnz * 3 bytes
		t.Errorf("sparse fresh bytes = %v, want 90", got)
	}
}

func TestAccessStatsTapped(t *testing.T) {
	// Small shared model, several threads: the measurement window must see
	// model traffic of both phases and real coherence events.
	r, err := Simulate(Xeon(), denseW(kernels.I8, kernels.I8, 1<<10, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r.Access.DatasetStream.Accesses == 0 || r.Access.ModelSeq.Accesses == 0 {
		t.Errorf("access stats empty: %+v", r.Access)
	}
	if r.Access.ModelSeq.Writes == 0 {
		t.Error("AXPY writes not recorded")
	}
	if r.Access.ModelRandom.Accesses != 0 {
		t.Errorf("dense trace recorded random model accesses: %+v", r.Access.ModelRandom)
	}
	if r.Access.Total().LatencyCycles == 0 {
		t.Error("no latency accumulated")
	}
	if r.CoherenceEvents != r.Stats.DirtyTransfers+r.Stats.Invalidates {
		t.Errorf("CoherenceEvents = %d, stats say %d+%d",
			r.CoherenceEvents, r.Stats.DirtyTransfers, r.Stats.Invalidates)
	}
	if r.CoherenceEvents == 0 {
		t.Error("4 threads sharing a 1K model produced no coherence events")
	}
	if r.ObstinateRejects != 0 {
		t.Errorf("ObstinateRejects = %d without obstinacy", r.ObstinateRejects)
	}

	sp, err := Simulate(Xeon(), sparseW(kernels.I8, kernels.I8, 16, 1<<14, 2))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Access.ModelRandom.Accesses == 0 {
		t.Errorf("sparse trace recorded no random model accesses: %+v", sp.Access)
	}
}

func TestObstinateRejectsSurfaced(t *testing.T) {
	w := denseW(kernels.I8, kernels.I8, 1<<10, 4)
	w.Obstinacy = 0.9
	r, err := Simulate(Xeon(), w)
	if err != nil {
		t.Fatal(err)
	}
	if r.ObstinateRejects == 0 {
		t.Error("q=0.9 obstinate cache rejected no invalidations")
	}
	if r.ObstinateRejects != r.Stats.InvalidatesIgnored {
		t.Errorf("ObstinateRejects = %d, stats say %d", r.ObstinateRejects, r.Stats.InvalidatesIgnored)
	}
}
