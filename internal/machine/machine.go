// Package machine is the timing model of the simulated multicore: it
// combines the compute cost of a kernel's instruction stream (package
// simd), the memory behaviour of its access trace (packages trace and
// cache), and a shared-DRAM bandwidth roofline into a predicted dataset
// throughput in giga-numbers-per-second (GNPS) — the paper's
// hardware-efficiency metric.
//
// The model is deliberately simple and documented:
//
//   - Compute: the throughput-model cycles of the kernel's instruction
//     stream (fully pipelined inner loops).
//   - Memory stalls: per-access latencies from the cache simulator, minus
//     the L1 latency that pipelining hides. Streaming dataset loads enjoy
//     memory-level parallelism: a DRAM-latency stall is divided by MLP
//     (out-of-order cores sustain several outstanding line fills).
//     Model-region accesses pay full latency: in the communication-bound
//     regime these are coherence misses on the critical path.
//   - Bandwidth: all cores share DRAM; a round of one step per core can
//     never take less time than the round's DRAM traffic at the configured
//     bandwidth.
//
// Per-core compute and memory time overlap imperfectly on a real core; the
// model charges max(compute, memory) + 0.2*min(compute, memory), a standard
// roofline-with-overlap compromise.
package machine

import (
	"context"
	"fmt"

	"buckwild/internal/cache"
	"buckwild/internal/dmgc"
	"buckwild/internal/kernels"
	"buckwild/internal/prng"
	"buckwild/internal/simd"
	"buckwild/internal/trace"
)

// Config describes the simulated machine.
type Config struct {
	// ClockGHz is the core clock (the paper's Xeon runs at 2.5 GHz).
	ClockGHz float64
	// DRAMBandwidthGBs is the shared memory bandwidth in GB/s.
	DRAMBandwidthGBs float64
	// CoreBandwidthGBs caps one core's sustainable DRAM streaming rate
	// (a single core cannot saturate the socket's memory controllers;
	// this is what makes the paper's base throughputs flat across model
	// sizes and roughly inversely proportional to bytes per element).
	CoreBandwidthGBs float64
	// MLP is the number of overlapping outstanding DRAM fills for
	// streaming loads.
	MLP float64
	// Cache is the hierarchy geometry (cores are taken from the
	// workload's thread count).
	Cache cache.Config
	// Cost is the instruction cost model.
	Cost *simd.CostModel
	// MaxSimElements caps the model size simulated at line granularity;
	// larger models are simulated at the cap and scaled (the per-element
	// behaviour is homogeneous in the bandwidth-bound regime).
	MaxSimElements int
}

// Xeon returns the reproduction's standard machine: 2.5 GHz, Haswell-EX
// cache geometry, 60 GB/s of DRAM bandwidth.
func Xeon() Config {
	return Config{
		ClockGHz:         2.5,
		DRAMBandwidthGBs: 60,
		CoreBandwidthGBs: 3.5,
		MLP:              8,
		Cache:            cache.XeonConfig(),
		Cost:             simd.Haswell(),
		MaxSimElements:   1 << 21,
	}
}

// Workload describes the SGD configuration to simulate.
type Workload struct {
	Sparse bool
	// D and M are the dataset and model precisions; IdxBits the sparse
	// index width.
	D, M    kernels.Prec
	IdxBits uint
	Variant kernels.Variant
	Quant   kernels.QuantKind
	// QuantPeriod is the randomness reuse period for QShared.
	QuantPeriod int
	// ModelSize is n (elements); Density the sparse nonzero fraction.
	ModelSize int
	Density   float64
	Threads   int
	// MiniBatch is B (examples per model update); 0 means 1.
	MiniBatch int
	// Sockets spreads the threads across NUMA sockets (0 or 1 = one
	// socket). Cross-socket coherence pays the QPI round trip, but each
	// socket contributes its own DRAM bandwidth — the DimmWitted-style
	// trade-off the paper cites for NUMA machines.
	Sockets int
	// Prefetch enables the hardware prefetcher (Section 5.3).
	Prefetch bool
	// Obstinacy is the obstinate-cache q (Section 6.2).
	Obstinacy float64
	Seed      uint64
}

// SignatureWorkload is the Table 2 workload of a signature, and the only
// place a signature becomes one: its D and M terms through
// kernels.TermPrec, its index width and sparsity, hand-optimized kernels
// (the Section 6.1 proposed instructions when either precision is 4-bit),
// UnbiasedShared rounding with the paper's reuse period of 8, a 0.03
// density (read only when sparse), the hardware prefetcher on, and seed
// 1. The simulator costs full-precision gradients and no communication,
// so a G or C term narrower than 32 bits is refused rather than dropped.
func SignatureWorkload(sig dmgc.Signature, modelSize, threads int) (Workload, error) {
	if sig.G.Present && sig.G.Bits < 32 {
		return Workload{}, fmt.Errorf("machine: %v: the simulator has no G term (gradients are full precision in its cost model)", sig)
	}
	if sig.C.Present && sig.C.Bits < 32 {
		return Workload{}, fmt.Errorf("machine: %v: the simulator has no C term; communication is priced by the cluster tier", sig)
	}
	d, err := kernels.TermPrec(sig.D)
	if err != nil {
		return Workload{}, err
	}
	m, err := kernels.TermPrec(sig.M)
	if err != nil {
		return Workload{}, err
	}
	variant := kernels.HandOpt
	if d == kernels.I4 || m == kernels.I4 {
		variant = kernels.NewInsn
	}
	return Workload{
		Sparse:      sig.Sparse(),
		D:           d,
		M:           m,
		IdxBits:     sig.IndexBits(),
		Variant:     variant,
		Quant:       kernels.QShared,
		QuantPeriod: 8,
		ModelSize:   modelSize,
		Density:     0.03,
		Threads:     threads,
		Prefetch:    true,
		Seed:        1,
	}, nil
}

// Result is the outcome of a simulation.
type Result struct {
	// GNPS is dataset throughput in giga-numbers-per-second.
	GNPS float64
	// CyclesPerRound is the simulated time of one round (every core
	// performing one mini-batch step).
	CyclesPerRound float64
	// ComputeCyclesPerStep and MemCyclesPerStep decompose one core's
	// step.
	ComputeCyclesPerStep float64
	MemCyclesPerStep     float64
	// CoherenceCyclesPerStep is the coherence share of one core's
	// stalls.
	CoherenceCyclesPerStep float64
	// Bound names the binding constraint: "compute", "memory",
	// "bandwidth" or "communication".
	Bound string
	// Stats carries the cache counters of the measurement window.
	Stats cache.Stats
	// Access breaks the measurement window's accesses down by trace kind
	// (dataset stream, sequential model, random model), with raw
	// latencies and coherence-event counts per kind.
	Access trace.AccessStats
	// CoherenceEvents totals the window's coherence traffic: dirty-remote
	// transfers plus invalidation messages delivered to private caches.
	CoherenceEvents uint64
	// ObstinateRejects counts invalidations the obstinate cache ignored
	// (zero unless Workload.Obstinacy > 0).
	ObstinateRejects uint64
	// MeasuredSteps is the total number of per-core steps in the
	// measurement window: one step per core per measured round.
	MeasuredSteps int
}

// warmRounds and measRounds are the cache-warmup and measurement windows
// of Simulate, in rounds (one step per core per round).
const warmRounds, measRounds = 2, 3

// sink accumulates adjusted memory stall cycles per core.
type sink struct {
	l1Lat  int
	mlp    float64
	cycles []float64
	// coh tracks the coherence share of each core's stalls, used to
	// label the communication-bound regime.
	coh []float64
	// access taps every access for the observability layer; the tap is
	// three array-indexed adds, cheap enough to leave unconditional.
	access trace.AccessStats
}

// Record implements trace.Sink. The stall policy:
//
//   - Coherence-event reads (dirty-remote transfers) sit on the critical
//     path and are charged in full: waiting for another core's freshly
//     written data is the stall that creates the communication-bound
//     regime (Section 5.3: "cores must wait for data from the shared L3").
//   - All writes, including upgrades that invalidate remote copies,
//     retire through the store buffer and are free on the issuing core;
//     their cost lands on the next reader as a dirty transfer, so charging
//     both sides would double count.
//   - Other reads are charged (latency - L1)/MLP: streaming and batched
//     loads are independent, so an out-of-order core overlaps them.
//     Random sparse gathers overlap poorly and pay half latency.
func (s *sink) Record(core int, kind trace.Kind, write bool, latency int, coherent bool) {
	s.access.Record(kind, write, latency, coherent)
	if write {
		return
	}
	if coherent {
		// Dirty-remote transfers on distinct lines overlap a little
		// (out-of-order cores keep ~2 in flight), unlike same-line
		// ping-pong, which the line-contention floor captures.
		s.cycles[core] += float64(latency) / 2
		s.coh[core] += float64(latency) / 2
		return
	}
	stall := float64(latency - s.l1Lat)
	if stall <= 0 {
		return
	}
	if kind == trace.ModelRandom {
		s.cycles[core] += stall / 2
		return
	}
	s.cycles[core] += stall / s.mlp
}

// Simulate runs the workload on the machine and returns its predicted
// throughput. It warms the caches with one round, then measures over
// several rounds.
func Simulate(mc Config, w Workload) (*Result, error) {
	return SimulateCtx(context.Background(), mc, w)
}

// SimulateCtx is Simulate bounded by a context: the context is checked
// between simulation rounds (one step per core), so cancellation or
// deadline expiry interrupts even a large point promptly. A cancelled
// simulation returns context.Cause(ctx).
func SimulateCtx(ctx context.Context, mc Config, w Workload) (*Result, error) {
	if err := validate(mc, w); err != nil {
		return nil, err
	}
	if w.MiniBatch < 1 {
		w.MiniBatch = 1
	}
	simN := w.ModelSize
	if simN > mc.MaxSimElements {
		simN = mc.MaxSimElements
	}

	cc := mc.Cache
	cc.Cores = w.Threads
	cc.Prefetch = w.Prefetch
	cc.Obstinacy = w.Obstinacy
	cc.Seed = w.Seed
	sockets := w.Sockets
	if sockets < 1 {
		sockets = 1
	}
	if sockets > 1 {
		cc.CoresPerSocket = (w.Threads + sockets - 1) / sockets
	}
	elemsPerStep, compute, err := computeCycles(mc, w, simN)
	if err != nil {
		return nil, err
	}

	// The memory phase is memoized across workloads that share a trace
	// (see memKey): the kernel variant and rounding strategy only affect
	// the compute side above, so e.g. a Generic/HandOpt pair replays one
	// cache simulation.
	mem, err := memSimulate(ctx, w, cc, mc.MLP, simN)
	if err != nil {
		return nil, err
	}

	st := mem.stats

	// A single core cannot stream its dataset faster than its private
	// bandwidth allows.
	coreBWFloor := freshBytesPerStep(w, simN) / (mc.CoreBandwidthGBs / mc.ClockGHz)

	// Per-core step time: compute and memory overlap imperfectly.
	var maxStep, memPerStep, cohPerStep float64
	for c, cyc := range mem.cycles {
		memc := cyc / measRounds
		memPerStep += memc / float64(w.Threads)
		cohPerStep += mem.coh[c] / measRounds / float64(w.Threads)
		stp := overlap(compute, memc)
		if stp < coreBWFloor {
			stp = coreBWFloor
		}
		if stp > maxStep {
			maxStep = stp
		}
	}

	// Shared-bandwidth bound for one round. Every populated socket
	// contributes its own memory controllers.
	bytesPerRound := float64(st.DRAMBytes) / measRounds
	bwBytesPerCycle := mc.DRAMBandwidthGBs / mc.ClockGHz * float64(sockets)
	bwCycles := bytesPerRound / bwBytesPerCycle

	// Line ping-pong bound: coherence transactions targeting the same
	// cache line serialize, so a round cannot beat the hottest line's
	// accumulated transaction latency. This is the floor that makes
	// small shared models slow (Section 4's communication-bound regime).
	pingPong := float64(mem.maxContention) / measRounds

	round := maxStep
	bound := "memory"
	if compute >= memPerStep {
		bound = "compute"
	}
	if bwCycles > round {
		round = bwCycles
		bound = "bandwidth"
	}
	if pingPong > round {
		round = pingPong
		bound = "communication"
	}

	// Scale back up if the model was capped: cycles per element are
	// stationary at the cap, so throughput is unchanged, but report
	// round time for the true size.
	scale := float64(w.ModelSize) / float64(simN)
	totalElems := float64(elemsPerStep) * float64(w.Threads) * scale
	gnps := totalElems / (round * scale) * mc.ClockGHz

	return &Result{
		GNPS:                   gnps,
		CyclesPerRound:         round * scale,
		ComputeCyclesPerStep:   compute * scale,
		MemCyclesPerStep:       memPerStep * scale,
		CoherenceCyclesPerStep: cohPerStep * scale,
		Bound:                  bound,
		Stats:                  st,
		Access:                 mem.access,
		CoherenceEvents:        st.DirtyTransfers + st.Invalidates,
		ObstinateRejects:       st.InvalidatesIgnored,
		MeasuredSteps:          measRounds * w.Threads,
	}, nil
}

// overlap combines compute and memory time on one core.
func overlap(compute, mem float64) float64 {
	hi, lo := compute, mem
	if mem > hi {
		hi, lo = mem, compute
	}
	return hi + 0.2*lo
}

// buildStreamCost constructs and costs the kernel instruction streams of
// one mini-batch step; computeCycles (streamcache.go) memoizes it.
func buildStreamCost(mc Config, w Workload, simN int) (elems int, cycles float64, err error) {
	var q *kernels.Quantizer
	if w.M != kernels.F32 {
		q, err = kernels.NewQuantizer(w.M, w.Quant, w.QuantPeriod, w.Seed|1)
		if err != nil {
			return 0, 0, err
		}
	}
	var s simd.Stream
	if w.Sparse {
		k, err := kernels.NewSparse(w.D, w.M, w.Variant, q, w.IdxBits)
		if err != nil {
			return 0, 0, err
		}
		nnz := workloadNNZ(w, simN)
		s = k.DotStream(nnz)
		s.Scale(int64(w.MiniBatch))
		ax := k.AxpyStream(nnz)
		ax.Scale(int64(w.MiniBatch))
		s.Add(ax)
		return nnz * w.MiniBatch, s.Cycles(mc.Cost), nil
	}
	k, err := kernels.NewDense(w.D, w.M, w.Variant, q)
	if err != nil {
		return 0, 0, err
	}
	s = k.DotStream(simN)
	s.Scale(int64(w.MiniBatch)) // one dot per batch example
	s.Add(k.AxpyStream(simN))   // one model update per batch
	return simN * w.MiniBatch, s.Cycles(mc.Cost), nil
}

// runStep drives one mini-batch step's memory trace for one core.
func runStep(h *cache.Hierarchy, snk *sink, core int, w Workload, simN int, offset uint64, rng *prng.Xorshift64) error {
	if w.Sparse {
		nnz := workloadNNZ(w, simN)
		return trace.Sparse(h, snk, core, trace.SparseConfig{
			ModelElems:        simN,
			NNZ:               nnz,
			ValueBytesPerElem: w.D.Bytes(),
			IndexBytesPerElem: float64(w.IdxBits) / 8,
			ModelBytesPerElem: w.M.Bytes(),
			MiniBatch:         w.MiniBatch,
			Regions:           trace.DefaultRegions(),
		}, offset, rng)
	}
	return trace.Dense(h, snk, core, trace.DenseConfig{
		ModelElems:          simN,
		DatasetBytesPerElem: w.D.Bytes(),
		ModelBytesPerElem:   w.M.Bytes(),
		MiniBatch:           w.MiniBatch,
		Regions:             trace.DefaultRegions(),
	}, offset)
}

// freshBytesPerStep returns the new dataset bytes one mini-batch step
// streams from DRAM.
func freshBytesPerStep(w Workload, simN int) float64 {
	if w.Sparse {
		nnz := workloadNNZ(w, simN)
		return float64(nnz) * (w.D.Bytes() + float64(w.IdxBits)/8) * float64(w.MiniBatch)
	}
	return float64(simN) * w.D.Bytes() * float64(w.MiniBatch)
}

// stepStreamBytes returns how far the dataset stream advances per round,
// so successive rounds touch fresh data. The per-example byte count is
// ceiled to whole bytes before rounding up to a full line, so fractional
// storage widths (packed 4-bit) never under-count the final line.
func stepStreamBytes(w Workload, simN int) uint64 {
	var per float64
	if w.Sparse {
		nnz := workloadNNZ(w, simN)
		per = float64(nnz) * (w.D.Bytes() + float64(w.IdxBits)/8)
	} else {
		per = float64(simN) * w.D.Bytes()
	}
	return (ceilBytes(per) + 63) / 64 * 64 * uint64(w.MiniBatch+1)
}

// ceilBytes rounds a fractional byte count up to whole bytes.
func ceilBytes(x float64) uint64 {
	u := uint64(x)
	if float64(u) < x {
		u++
	}
	return u
}

func validate(mc Config, w Workload) error {
	if mc.ClockGHz <= 0 || mc.DRAMBandwidthGBs <= 0 || mc.MLP < 1 {
		return fmt.Errorf("machine: bad machine config")
	}
	if mc.Cost == nil {
		return fmt.Errorf("machine: nil cost model")
	}
	if mc.MaxSimElements < 1 {
		return fmt.Errorf("machine: MaxSimElements must be positive")
	}
	if w.Threads < 1 || w.Threads > 32 {
		return fmt.Errorf("machine: threads %d out of [1, 32]", w.Threads)
	}
	if w.ModelSize < 1 {
		return fmt.Errorf("machine: model size must be positive")
	}
	if w.Sparse && (w.Density <= 0 || w.Density > 1) {
		return fmt.Errorf("machine: sparse density %v out of (0, 1]", w.Density)
	}
	return nil
}
