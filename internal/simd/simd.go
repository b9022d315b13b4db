// Package simd models the vector instruction set that Buckwild! kernels are
// written against. Go exposes no SIMD intrinsics, so the reproduction splits
// each kernel into two independent artifacts:
//
//   - a bit-accurate computation (package kernels) that produces the same
//     numerical results the vectorized code would, and
//   - an instruction stream (this package) that captures exactly which
//     vector instructions the kernel would execute per loop iteration.
//
// The instruction stream is costed with a throughput model derived from the
// AVX2 unit of the Haswell-EX Xeon E7-8890 v3 used in the paper: inner loops
// of dot and AXPY are long, independent, and fully pipelined, so the cost of
// a stream is the sum of reciprocal throughputs, not latencies. This is the
// same reasoning the paper uses in Section 5.1 to explain the ~10x gap
// between GCC's widen-to-float code (a dozen instructions per vector) and
// the hand-optimized vpmaddubsw code (one instruction per vector).
//
// The ISA includes the paper's Section 6.1 proposals as first-class opcodes
// (QDOT8, QAXPY8 and the 4-bit family), costed by the proxy-latency
// methodology the paper itself uses: each proposed instruction inherits the
// cost of the existing instruction the paper proxies it with.
package simd

import "fmt"

// VectorBits is the simulated vector register width (AVX2 ymm registers).
const VectorBits = 256

// VectorBytes is the vector width in bytes.
const VectorBytes = VectorBits / 8

// Lanes returns the number of elements of the given bit width that fit in
// one vector register.
func Lanes(elemBits uint) int {
	return VectorBits / int(elemBits)
}

// Opcode identifies a simulated vector (or scalar support) instruction.
type Opcode int

// The simulated instruction set. Names follow the AVX2 mnemonics where a
// direct counterpart exists.
const (
	// Memory.
	Load256  Opcode = iota // vmovdqu/vmovups load, 32 bytes
	Store256               // vmovdqu/vmovups store, 32 bytes

	// Integer ALU.
	PMADDUBSW // fused 8-bit pair multiply-add -> 16-bit (the key dot instruction)
	PMADDWD   // fused 16-bit pair multiply-add -> 32-bit
	PMULLW    // 16-bit multiply, low half
	PMULHRSW  // 16-bit fixed-point multiply with rounding (quantizing AXPY)
	PMULLD    // 32-bit multiply
	PADDSB    // 8-bit saturating add
	PADDSW    // 16-bit saturating add
	PADDD     // 32-bit add
	PSUBD     // 32-bit subtract
	PACKSSWB  // narrow 16 -> 8 with saturation
	PACKSSDW  // narrow 32 -> 16 with saturation
	PMOVSXBW  // sign-extend 8 -> 16
	PMOVSXBD  // sign-extend 8 -> 32
	PMOVSXWD  // sign-extend 16 -> 32
	PBROADCAST
	PBLEND
	PAND
	PXOR
	PSLLD   // shift left 32-bit lanes
	PSRLD   // shift right logical
	GATHERD // vpgatherdd: 8 indexed 32-bit loads (slow on Haswell)

	// Float ALU.
	CVTDQ2PS // int32 -> float32
	CVTPS2DQ // float32 -> int32
	MULPS
	ADDPS
	FMADDPS // vfmadd231ps
	HADDPS  // horizontal add step

	// Scalar support (loop control, address generation, scalar math).
	ScalarALU
	ScalarMul
	ScalarDiv // also covers exp approximations etc.

	// Section 6.1 proposed instructions.
	QDOT8  // 8-bit vertical multiply + horizontal add groups of 4 -> f32 (proxy: PMADDWD)
	QAXPY8 // 8-bit vector x scalar + hardware stochastic round -> 8-bit (proxy: PMULLW)
	PMUL4  // hypothetical 4-bit multiply (proxy cost: PMULLW-class)
	PADD4  // hypothetical 4-bit add (proxy cost: PADDSB-class)
	PMADD4 // hypothetical 4-bit fused multiply-add (proxy cost: PMADDUBSW-class)

	numOpcodes
)

var opNames = [numOpcodes]string{
	Load256:    "load256",
	Store256:   "store256",
	PMADDUBSW:  "pmaddubsw",
	PMADDWD:    "pmaddwd",
	PMULLW:     "pmullw",
	PMULHRSW:   "pmulhrsw",
	PMULLD:     "pmulld",
	PADDSB:     "paddsb",
	PADDSW:     "paddsw",
	PADDD:      "paddd",
	PSUBD:      "psubd",
	PACKSSWB:   "packsswb",
	PACKSSDW:   "packssdw",
	PMOVSXBW:   "pmovsxbw",
	PMOVSXBD:   "pmovsxbd",
	PMOVSXWD:   "pmovsxwd",
	PBROADCAST: "pbroadcast",
	PBLEND:     "pblend",
	PAND:       "pand",
	PXOR:       "pxor",
	PSLLD:      "pslld",
	PSRLD:      "psrld",
	GATHERD:    "vpgatherdd",
	CVTDQ2PS:   "cvtdq2ps",
	CVTPS2DQ:   "cvtps2dq",
	MULPS:      "mulps",
	ADDPS:      "addps",
	FMADDPS:    "fmaddps",
	HADDPS:     "haddps",
	ScalarALU:  "scalar.alu",
	ScalarMul:  "scalar.mul",
	ScalarDiv:  "scalar.div",
	QDOT8:      "qdot8",
	QAXPY8:     "qaxpy8",
	PMUL4:      "pmul4",
	PADD4:      "padd4",
	PMADD4:     "pmadd4",
}

// String returns the mnemonic for the opcode.
func (o Opcode) String() string {
	if o < 0 || o >= numOpcodes {
		return fmt.Sprintf("Opcode(%d)", int(o))
	}
	return opNames[o]
}

// Cost describes the execution cost of one instruction.
type Cost struct {
	// RecipThroughput is the sustained cost in cycles per instruction
	// when the instruction is issued back-to-back in a pipelined loop.
	RecipThroughput float64
	// Latency is the dependent-chain latency in cycles. The throughput
	// model uses RecipThroughput; Latency is kept for serial sections
	// (e.g. the horizontal reduction tail of a dot product).
	Latency float64
}

// CostModel maps opcodes to costs. The default model is Haswell-derived;
// alternative models can express the Section 6.1 what-if architectures.
type CostModel struct {
	Name  string
	Costs [numOpcodes]Cost
}

// haswellCosts approximates Haswell-EX AVX2 port throughput (values from
// the Intel optimization manual / Agner Fog instruction tables, rounded).
func haswellCosts() [numOpcodes]Cost {
	var c [numOpcodes]Cost
	set := func(op Opcode, rtp, lat float64) { c[op] = Cost{rtp, lat} }
	set(Load256, 0.5, 5)
	set(Store256, 1, 4)
	set(PMADDUBSW, 1, 5)
	set(PMADDWD, 1, 5)
	set(PMULLW, 1, 5)
	set(PMULHRSW, 1, 5)
	set(PMULLD, 2, 10)
	set(PADDSB, 0.5, 1)
	set(PADDSW, 0.5, 1)
	set(PADDD, 0.5, 1)
	set(PSUBD, 0.5, 1)
	set(PACKSSWB, 1, 1)
	set(PACKSSDW, 1, 1)
	set(PMOVSXBW, 1, 3)
	set(PMOVSXBD, 1, 3)
	set(PMOVSXWD, 1, 3)
	set(PBROADCAST, 1, 3)
	set(PBLEND, 0.33, 1)
	set(PAND, 0.33, 1)
	set(PXOR, 0.33, 1)
	set(PSLLD, 1, 1)
	set(PSRLD, 1, 1)
	set(GATHERD, 14, 24) // Haswell gathers are microcoded and slow
	set(CVTDQ2PS, 1, 3)
	set(CVTPS2DQ, 1, 3)
	set(MULPS, 0.5, 5)
	set(ADDPS, 1, 3)
	set(FMADDPS, 0.5, 5)
	set(HADDPS, 2, 5)
	set(ScalarALU, 0.25, 1)
	set(ScalarMul, 1, 3)
	set(ScalarDiv, 8, 20)
	// Proposed instructions, costed by the paper's proxy methodology.
	set(QDOT8, 1, 5)  // proxy: vpmaddwd
	set(QAXPY8, 1, 5) // proxy: vpmullw
	set(PMUL4, 1, 5)  // same class as the 8-bit multiplies
	set(PADD4, 0.5, 1)
	set(PMADD4, 1, 5)
	return c
}

// Haswell returns the default cost model for the simulated Xeon.
func Haswell() *CostModel {
	return &CostModel{Name: "haswell-avx2", Costs: haswellCosts()}
}

// Port classifies which execution resource an instruction occupies. The
// throughput model is port-aware: a superscalar core issues instructions on
// different ports in parallel, so the cost of a pipelined loop is the load
// on its busiest port, not the instruction count. This is what makes the
// fused low-precision instructions fast: a vpmaddubsw loop does 32
// multiply-accumulates per multiplier-port cycle while the float loop is
// bound by its loads and stores.
type Port int

// The modelled port classes (Haswell: loads on ports 2/3, stores on 4,
// vector multiplies on 0 (+1 for FMA), other vector ALU on 1/5, scalar on
// the remaining integer ports, divides on the unpipelined divider).
const (
	PortLoad Port = iota
	PortStore
	PortMul
	PortVec
	PortScalar
	PortDiv
	numPorts
)

var opPorts = [numOpcodes]Port{
	Load256:    PortLoad,
	Store256:   PortStore,
	PMADDUBSW:  PortMul,
	PMADDWD:    PortMul,
	PMULLW:     PortMul,
	PMULHRSW:   PortMul,
	PMULLD:     PortMul,
	PADDSB:     PortVec,
	PADDSW:     PortVec,
	PADDD:      PortVec,
	PSUBD:      PortVec,
	PACKSSWB:   PortVec,
	PACKSSDW:   PortVec,
	PMOVSXBW:   PortVec,
	PMOVSXBD:   PortVec,
	PMOVSXWD:   PortVec,
	PBROADCAST: PortVec,
	PBLEND:     PortVec,
	PAND:       PortVec,
	PXOR:       PortVec,
	PSLLD:      PortVec,
	PSRLD:      PortVec,
	GATHERD:    PortLoad,
	CVTDQ2PS:   PortVec,
	CVTPS2DQ:   PortVec,
	MULPS:      PortMul,
	ADDPS:      PortVec,
	FMADDPS:    PortMul,
	HADDPS:     PortVec,
	ScalarALU:  PortScalar,
	ScalarMul:  PortMul, // scalar multiplies share the vector multiplier port
	ScalarDiv:  PortDiv,
	QDOT8:      PortMul,
	QAXPY8:     PortMul,
	PMUL4:      PortMul,
	PADD4:      PortVec,
	PMADD4:     PortMul,
}

// Stream is a multiset of instructions: how many times each opcode executes
// for some unit of work (typically: one full kernel invocation over n
// elements). Streams are value types; the zero value is an empty stream.
type Stream struct {
	counts [numOpcodes]int64
}

// Emit records n executions of op.
func (s *Stream) Emit(op Opcode, n int64) {
	if op < 0 || op >= numOpcodes {
		panic(fmt.Sprintf("simd: emit of invalid opcode %d", int(op)))
	}
	s.counts[op] += n
}

// Add accumulates another stream into s.
func (s *Stream) Add(t Stream) {
	for i := range s.counts {
		s.counts[i] += t.counts[i]
	}
}

// Scale multiplies every count by k (used to extend a per-iteration stream
// to a full pass).
func (s *Stream) Scale(k int64) {
	for i := range s.counts {
		s.counts[i] *= k
	}
}

// Count returns the recorded executions of op.
func (s Stream) Count(op Opcode) int64 {
	return s.counts[op]
}

// Instructions returns the total number of instructions in the stream.
func (s Stream) Instructions() int64 {
	var t int64
	for _, c := range s.counts {
		t += c
	}
	return t
}

// LoadBytes returns the number of bytes loaded by the stream's vector loads.
func (s Stream) LoadBytes() int64 {
	return s.counts[Load256] * VectorBytes
}

// StoreBytes returns the number of bytes stored by the stream's vector stores.
func (s Stream) StoreBytes() int64 {
	return s.counts[Store256] * VectorBytes
}

// Cycles returns the throughput-model cost of the stream under m: per
// execution port, the sum of count x reciprocal throughput; the stream
// costs as much as its busiest port. This models a fully pipelined,
// superscalar inner loop, which is accurate for the long dot/AXPY loops
// that dominate SGD.
func (s Stream) Cycles(m *CostModel) float64 {
	var per [numPorts]float64
	for op, n := range s.counts {
		if n != 0 {
			per[opPorts[op]] += float64(n) * m.Costs[op].RecipThroughput
		}
	}
	maxC := per[0]
	for _, c := range per[1:] {
		if c > maxC {
			maxC = c
		}
	}
	return maxC
}

// PortCycles returns the per-port load of the stream, for diagnostics and
// tests.
func (s Stream) PortCycles(m *CostModel) [int(numPorts)]float64 {
	var per [int(numPorts)]float64
	for op, n := range s.counts {
		if n != 0 {
			per[opPorts[op]] += float64(n) * m.Costs[op].RecipThroughput
		}
	}
	return per
}

// SerialCycles returns the latency-model cost of the stream, used for short
// dependent sections such as reduction tails and scalar glue between the
// dot and the AXPY.
func (s Stream) SerialCycles(m *CostModel) float64 {
	var c float64
	for op, n := range s.counts {
		if n != 0 {
			c += float64(n) * m.Costs[op].Latency
		}
	}
	return c
}

// String summarizes the stream's non-zero opcode counts.
func (s Stream) String() string {
	out := ""
	for op, n := range s.counts {
		if n != 0 {
			if out != "" {
				out += " "
			}
			out += fmt.Sprintf("%s:%d", Opcode(op), n)
		}
	}
	if out == "" {
		return "(empty)"
	}
	return out
}
