package buckwild

import (
	"context"
	"fmt"

	"buckwild/internal/dmgc"
	"buckwild/internal/kernels"
	"buckwild/internal/machine"
	"buckwild/internal/obs"
)

// MachineResult re-exports the simulated-machine result.
type MachineResult = machine.Result

// Toggle is a three-state boolean whose zero value means "use the
// default", so SimOptions' zero value changes nothing.
type Toggle int

// Toggle states.
const (
	// DefaultToggle keeps the option's documented default.
	DefaultToggle Toggle = iota
	// On and Off force the option.
	On
	Off
)

// enabled resolves the toggle against its default.
func (t Toggle) enabled(def bool) bool {
	switch t {
	case On:
		return true
	case Off:
		return false
	}
	return def
}

// SimOptions customizes SimulateThroughputOpts' workload. The zero value
// reproduces the historical hard-coded behaviour exactly:
//
//	Variant  ""  → hand-optimized kernels; the Section 6.1 proposed
//	               instructions when either precision is 4-bit
//	Rounding ""  → UnbiasedShared with the paper's reuse period of 8
//	Density  0   → 0.03 (sparse workloads only)
//	Prefetch 0   → on (DefaultToggle)
//	Seed     0   → 1
//
// Boolean options are Toggle-typed so that the zero value stays neutral:
// DefaultToggle (0) keeps the documented default, On and Off force the
// option. This is what lets a partially-filled SimOptions override only
// the fields it mentions.
type SimOptions struct {
	// Variant is "handopt", "generic" or "newinsn"; empty selects the
	// precision-appropriate default above.
	Variant string
	// Rounding selects the simulated rounding strategy; UnbiasedHardware
	// models the proposed QAXPY instructions.
	Rounding Rounding
	// Density is the sparse nonzero fraction.
	Density float64
	// Prefetch toggles the hardware prefetcher (Section 5.3).
	Prefetch Toggle
	// Seed seeds the simulated cache and trace randomness.
	Seed uint64
	// Context, when non-nil, bounds the simulation: it is checked between
	// simulated rounds, and cancellation returns the context's cause with
	// the "buckwild:" prefix.
	Context context.Context
	// Tracer, when non-nil, records the simulation's warm-up and
	// measurement phases as trace spans. Nil traces nothing at no cost.
	Tracer *Tracer
}

func (o SimOptions) variant(d, m kernels.Prec) (kernels.Variant, error) {
	switch o.Variant {
	case "":
		if d == kernels.I4 || m == kernels.I4 {
			return kernels.NewInsn, nil
		}
		return kernels.HandOpt, nil
	case "handopt":
		return kernels.HandOpt, nil
	case "generic":
		return kernels.Generic, nil
	case "newinsn":
		return kernels.NewInsn, nil
	}
	return 0, fmt.Errorf("buckwild: unknown kernel variant %q (use handopt, generic or newinsn)", o.Variant)
}

// SimulateThroughputOpts runs the simulated Xeon on an SGD workload with
// the given signature and options and returns its predicted hardware
// efficiency. It is the programmatic interface to the Table 2 / Figure 2
// experiments; cmd/experiments exposes the full sweeps. Pass the zero
// SimOptions for the historical workload documented on SimOptions.
func SimulateThroughputOpts(sigText string, modelSize, threads int, o SimOptions) (*MachineResult, error) {
	sig, err := dmgc.Parse(sigText)
	if err != nil {
		return nil, wrapErr(err)
	}
	d, err := precOf(sig.DatasetBits(), sig.D.Float || !sig.D.Present)
	if err != nil {
		return nil, err
	}
	m, err := precOf(sig.ModelBits(), sig.M.Float || !sig.M.Present)
	if err != nil {
		return nil, err
	}
	variant, err := o.variant(d, m)
	if err != nil {
		return nil, err
	}
	quant, err := o.Rounding.kind()
	if err != nil {
		return nil, err
	}
	density := o.Density
	if density == 0 {
		density = 0.03
	}
	if density < 0 || density > 1 {
		return nil, fmt.Errorf("buckwild: density %v out of (0, 1]", density)
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	w := machine.Workload{
		Sparse:      sig.Sparse(),
		D:           d,
		M:           m,
		IdxBits:     sig.IndexBits(),
		Variant:     variant,
		Quant:       quant,
		QuantPeriod: 8,
		ModelSize:   modelSize,
		Density:     density,
		Threads:     threads,
		Prefetch:    o.Prefetch.enabled(true),
		Seed:        seed,
	}
	res, err := machine.SimulateCtx(obs.ContextWithTracer(o.Context, o.Tracer), machine.Xeon(), w)
	return res, wrapErr(err)
}
