package run

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Fault-injection errors. They surface as the cause of the attempt's
// context cancellation, so the supervisor (and tests) can tell an
// injected fault from a user cancellation with errors.Is.
var (
	// ErrInjectedCrash is the cause an injected worker crash cancels the
	// attempt with.
	ErrInjectedCrash = errors.New("run: injected worker crash")
	// ErrStallDetected is the cause the stall watchdog cancels the
	// attempt with when run progress stops (injected or real).
	ErrStallDetected = errors.New("run: worker stall detected")
)

// FaultKind enumerates the injectable faults.
type FaultKind int

const (
	// FaultCrash aborts the attempt at a global model-update count, as a
	// crashed worker process would: in-flight epoch work is lost and the
	// supervisor must resume from the latest checkpoint.
	FaultCrash FaultKind = iota
	// FaultStall blocks the worker that reaches a global model-update
	// count until the attempt is cancelled, modelling a hung worker; the
	// supervisor's watchdog must detect the lost progress.
	FaultStall
	// FaultCorrupt flips a byte in the payload of the Nth checkpoint
	// write (1-based), after its CRC is computed — a torn or corrupted
	// write the loader must detect and fall back from.
	FaultCorrupt
)

// String names the fault kind as it appears in fault specs.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultStall:
		return "stall"
	case FaultCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one scheduled fault.
type Fault struct {
	Kind FaultKind
	// Step is the 1-based global model-update count (across all workers
	// of the current attempt, in observation order) at which a crash or
	// stall fires. Under Sequential sharing the count — and therefore
	// the fault point — is fully deterministic.
	Step uint64
	// Checkpoint is the 1-based index of the checkpoint write to
	// corrupt (FaultCorrupt only), counted across the whole supervised
	// run.
	Checkpoint int
}

// String renders the fault in the spec syntax ParsePlan accepts.
func (f Fault) String() string {
	if f.Kind == FaultCorrupt {
		return fmt.Sprintf("corrupt@ckpt=%d", f.Checkpoint)
	}
	return fmt.Sprintf("%s@step=%d", f.Kind, f.Step)
}

// Plan is a deterministic fault schedule. Each fault fires at most once
// per supervised run, so a crash consumed by one attempt does not
// re-fire after the resume that recovers from it.
type Plan struct {
	Faults []Fault
}

// String renders the plan as a comma-separated spec.
func (p *Plan) String() string {
	if p == nil || len(p.Faults) == 0 {
		return ""
	}
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// hasStepFaults reports whether any fault needs per-step observation
// (forcing the supervisor to sample every step).
func (p *Plan) hasStepFaults() bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.Kind == FaultCrash || f.Kind == FaultStall {
			return true
		}
	}
	return false
}

// hasStalls reports whether the plan injects stalls (so the supervisor
// can default the watchdog on).
func (p *Plan) hasStalls() bool {
	if p == nil {
		return false
	}
	for _, f := range p.Faults {
		if f.Kind == FaultStall {
			return true
		}
	}
	return false
}

// ParsePlan parses a comma-separated fault spec:
//
//	crash@step=N    crash the attempt at its Nth model update
//	stall@step=N    hang a worker at its Nth model update
//	corrupt@ckpt=N  corrupt the Nth checkpoint write (N <= math.MaxInt32)
//
// e.g. "corrupt@ckpt=1,crash@step=1500". An empty spec is a nil plan.
func ParsePlan(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var p Plan
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		kind, arg, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("run: fault %q: want kind@key=value", part)
		}
		key, val, ok := strings.Cut(arg, "=")
		if !ok {
			return nil, fmt.Errorf("run: fault %q: want kind@key=value", part)
		}
		n, err := strconv.ParseUint(val, 10, 63)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("run: fault %q: %q is not a positive count", part, val)
		}
		switch {
		case (kind == "crash" || kind == "stall") && key == "step":
			k := FaultCrash
			if kind == "stall" {
				k = FaultStall
			}
			p.Faults = append(p.Faults, Fault{Kind: k, Step: n})
		case kind == "corrupt" && key == "ckpt":
			// The count becomes an int: keep it in 32 bits on every
			// platform, or a 386 build would wrap it.
			if n > math.MaxInt32 {
				return nil, fmt.Errorf("run: fault %q: checkpoint %d is beyond %d", part, n, math.MaxInt32)
			}
			p.Faults = append(p.Faults, Fault{Kind: FaultCorrupt, Checkpoint: int(n)})
		default:
			return nil, fmt.Errorf("run: unknown fault %q (want crash@step=, stall@step= or corrupt@ckpt=)", part)
		}
	}
	return &p, nil
}

// injector arms a plan for one supervised run: it tracks which faults
// have fired (each fires at most once) and hands out the per-attempt
// decisions the hooks and the checkpoint writer consult.
type injector struct {
	mu     sync.Mutex
	faults []Fault
	fired  []bool
	// ckptWrites counts checkpoint writes across the run for
	// FaultCorrupt matching.
	ckptWrites int
	counts     map[FaultKind]int
}

func newInjector(p *Plan) *injector {
	inj := &injector{counts: make(map[FaultKind]int)}
	if p != nil {
		inj.faults = p.Faults
		inj.fired = make([]bool, len(p.Faults))
	}
	return inj
}

// fireAt returns the unfired crash or stall fault scheduled for global
// step n of the current attempt, marking it fired.
func (inj *injector) fireAt(n uint64) (Fault, bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for i, f := range inj.faults {
		if !inj.fired[i] && f.Kind != FaultCorrupt && f.Step == n {
			inj.fired[i] = true
			inj.counts[f.Kind]++
			return f, true
		}
	}
	return Fault{}, false
}

// corruptNextWrite counts one checkpoint write and reports whether the
// schedule corrupts it.
func (inj *injector) corruptNextWrite() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.ckptWrites++
	for i, f := range inj.faults {
		if !inj.fired[i] && f.Kind == FaultCorrupt && f.Checkpoint == inj.ckptWrites {
			inj.fired[i] = true
			inj.counts[FaultCorrupt]++
			return true
		}
	}
	return false
}

// firedCount returns how many faults of a kind have fired so far.
func (inj *injector) firedCount(k FaultKind) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.counts[k]
}
