package buckwild

import (
	"context"

	"buckwild/internal/dmgc"
	"buckwild/internal/kernels"
	"buckwild/internal/machine"
)

// MachineResult re-exports the simulated-machine result.
type MachineResult = machine.Result

// SimulateThroughput runs the simulated Xeon on an SGD workload with the
// given signature and returns its predicted hardware efficiency. It is
// the programmatic interface to the Table 2 / Figure 2 experiments;
// cmd/experiments exposes the full sweeps. The workload uses
// hand-optimized kernels (the Section 6.1 proposed instructions when
// either precision is 4-bit), UnbiasedShared rounding with the paper's
// reuse period of 8, a 0.03 density for sparse signatures, the hardware
// prefetcher on, and seed 1. ctx, when non-nil, is checked between
// simulated rounds, and cancellation returns the context's cause with
// the "buckwild:" prefix.
func SimulateThroughput(ctx context.Context, sigText string, modelSize, threads int) (*MachineResult, error) {
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
	variant := kernels.HandOpt
	if d == kernels.I4 || m == kernels.I4 {
		variant = kernels.NewInsn
	}
	w := machine.Workload{
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
	}
	res, err := machine.SimulateCtx(ctx, machine.Xeon(), w)
	return res, wrapErr(err)
}
