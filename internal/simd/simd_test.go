package simd

import (
	"strings"
	"testing"
)

func TestLanes(t *testing.T) {
	if Lanes(8) != 32 || Lanes(16) != 16 || Lanes(32) != 8 || Lanes(4) != 64 {
		t.Error("lane counts wrong")
	}
}

func TestOpcodeNamesComplete(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		name := op.String()
		if name == "" || strings.HasPrefix(name, "Opcode(") {
			t.Errorf("opcode %d has no mnemonic", int(op))
		}
	}
	if Opcode(-1).String() != "Opcode(-1)" {
		t.Error("invalid opcode should format numerically")
	}
}

func TestHaswellCostsComplete(t *testing.T) {
	m := Haswell()
	if m.Name == "" {
		t.Error("model needs a name")
	}
	for op := Opcode(0); op < numOpcodes; op++ {
		c := m.Costs[op]
		if c.RecipThroughput <= 0 {
			t.Errorf("%v has no cost", op)
		}
	}
}

func TestPortClassification(t *testing.T) {
	cases := map[Opcode]Port{
		Load256:   PortLoad,
		GATHERD:   PortLoad,
		Store256:  PortStore,
		PMADDUBSW: PortMul,
		FMADDPS:   PortMul,
		ScalarMul: PortMul,
		PADDD:     PortVec,
		CVTDQ2PS:  PortVec,
		ScalarALU: PortScalar,
		ScalarDiv: PortDiv,
		QDOT8:     PortMul,
	}
	for op, want := range cases {
		if got := opPorts[op]; got != want {
			t.Errorf("%v on port %d, want %d", op, got, want)
		}
	}
}

func TestCyclesIsMaxOfPorts(t *testing.T) {
	m := Haswell()
	var s Stream
	s.Emit(Load256, 8)   // load port: 8 * 0.5 = 4
	s.Emit(FMADDPS, 4)   // mul port: 4 * 0.5 = 2
	s.Emit(ScalarALU, 4) // scalar port: 1
	if got := s.Cycles(m); got != 4 {
		t.Errorf("Cycles = %v, want max port load 4", got)
	}
	// Adding work on a non-binding port does not change the cost.
	s.Emit(PADDD, 4) // vec port: 2
	if got := s.Cycles(m); got != 4 {
		t.Errorf("non-binding port changed Cycles to %v", got)
	}
	// Overloading a port does.
	s.Emit(FMADDPS, 8)
	if got := s.Cycles(m); got != 6 {
		t.Errorf("Cycles = %v, want 6 after mul port overload", got)
	}
}

func TestStreamAccounting(t *testing.T) {
	var s Stream
	s.Emit(Load256, 3)
	s.Emit(Store256, 2)
	if s.Count(Load256) != 3 || s.Count(Store256) != 2 {
		t.Errorf("loads/stores: %d/%d", s.Count(Load256), s.Count(Store256))
	}
	if s.Instructions() != 5 {
		t.Errorf("instructions = %d", s.Instructions())
	}
	str := s.String()
	if !strings.Contains(str, "load256:3") || !strings.Contains(str, "store256:2") {
		t.Errorf("String = %q", str)
	}
	var empty Stream
	if empty.String() != "(empty)" {
		t.Errorf("empty String = %q", empty.String())
	}
}

func TestEmitPanicsOnInvalidOpcode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Emit of invalid opcode should panic")
		}
	}()
	var s Stream
	s.Emit(numOpcodes, 1)
}

func TestProposedInstructionProxyCosts(t *testing.T) {
	// Section 6.1 methodology: proposed instructions inherit their
	// proxy's cost.
	m := Haswell()
	if m.Costs[QDOT8] != m.Costs[PMADDWD] {
		t.Error("QDOT8 must cost like its proxy vpmaddwd")
	}
	if m.Costs[QAXPY8].RecipThroughput != m.Costs[PMULLW].RecipThroughput {
		t.Error("QAXPY8 must cost like its proxy vpmullw")
	}
}
