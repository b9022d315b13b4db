package run

import (
	"reflect"
	"strings"
	"testing"
)

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "corrupt@ckpt=1,crash@step=1500,stall@step=42"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != spec {
		t.Fatalf("round trip %q -> %q", spec, got)
	}
	if !p.hasStepFaults() || !p.hasStalls() {
		t.Fatalf("plan %v: hasStepFaults=%v hasStalls=%v", p, p.hasStepFaults(), p.hasStalls())
	}
}

func TestParsePlanEmpty(t *testing.T) {
	p, err := ParsePlan("  ")
	if p != nil || err != nil {
		t.Fatalf("empty spec: %v, %v", p, err)
	}
	if p.hasStepFaults() || p.hasStalls() {
		t.Fatal("nil plan reports faults")
	}
	if p.String() != "" {
		t.Fatalf("nil plan renders %q", p.String())
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"crash",
		"crash@step",
		"crash@step=0",
		"crash@step=-3",
		"crash@ckpt=2",
		"corrupt@step=2",
		"explode@step=2",
		"crash@step=two",
		"corrupt@ckpt=2147483648",
		"corrupt@ckpt=4294967297", // checkpoint 1 once wrapped to a 32-bit int
	} {
		if p, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) = %v, want error", spec, p)
		}
	}
}

// FuzzParsePlan: any spec parses or fails without a panic, and a plan
// that parses renders back (String) to a spec that parses to the same
// plan. Its seeds are the committed corpus (testdata/fuzz/FuzzParsePlan).
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil || p == nil {
			return
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) = %v; its String %q fails: %v", spec, p, p.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("ParsePlan(%q) = %v, but its String %q parses to %v", spec, p, p.String(), q)
		}
	})
}

func TestInjectorFiresOnce(t *testing.T) {
	p, err := ParsePlan("crash@step=3,corrupt@ckpt=2")
	if err != nil {
		t.Fatal(err)
	}
	inj := newInjector(p)
	if _, ok := inj.fireAt(2); ok {
		t.Fatal("fired at wrong step")
	}
	f, ok := inj.fireAt(3)
	if !ok || f.Kind != FaultCrash {
		t.Fatalf("fireAt(3) = %v, %v", f, ok)
	}
	if _, ok := inj.fireAt(3); ok {
		t.Fatal("crash fired twice")
	}
	if inj.corruptNextWrite() {
		t.Fatal("write 1 corrupted, schedule says write 2")
	}
	if !inj.corruptNextWrite() {
		t.Fatal("write 2 not corrupted")
	}
	if inj.corruptNextWrite() {
		t.Fatal("corrupt fired twice")
	}
	if inj.firedCount(FaultCrash) != 1 || inj.firedCount(FaultCorrupt) != 1 || inj.firedCount(FaultStall) != 0 {
		t.Fatalf("fired counts: crash=%d corrupt=%d stall=%d", inj.firedCount(FaultCrash), inj.firedCount(FaultCorrupt), inj.firedCount(FaultStall))
	}
}

func TestFaultStrings(t *testing.T) {
	if s := (Fault{Kind: FaultStall, Step: 9}).String(); s != "stall@step=9" {
		t.Fatalf("stall fault renders %q", s)
	}
	if s := FaultCorrupt.String(); s != "corrupt" {
		t.Fatalf("FaultCorrupt renders %q", s)
	}
	if !strings.HasPrefix(FaultKind(99).String(), "FaultKind(") {
		t.Fatalf("unknown kind renders %q", FaultKind(99).String())
	}
}
