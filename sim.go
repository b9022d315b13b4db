package buckwild

import (
	"context"

	"buckwild/internal/dmgc"
	"buckwild/internal/machine"
)

// MachineResult re-exports the simulated-machine result.
type MachineResult = machine.Result

// SimulateThroughput runs the simulated Xeon on the Table 2 workload of
// the given signature (machine.SignatureWorkload fixes its kernels,
// rounding, density, prefetcher and seed) and returns its predicted
// hardware efficiency. It is the programmatic interface to the Table 2 /
// Figure 2 experiments; cmd/experiments exposes the full sweeps. ctx,
// when non-nil, is checked between simulated rounds, and cancellation
// returns the context's cause with the "buckwild:" prefix.
func SimulateThroughput(ctx context.Context, sigText string, modelSize, threads int) (*MachineResult, error) {
	sig, err := dmgc.Parse(sigText)
	if err != nil {
		return nil, wrapErr(err)
	}
	w, err := machine.SignatureWorkload(sig, modelSize, threads)
	if err != nil {
		return nil, wrapErr(err)
	}
	res, err := machine.SimulateCtx(ctx, machine.Xeon(), w)
	return res, wrapErr(err)
}
