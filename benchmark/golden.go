package main

// golden.go pins the simulated statistics of the default seed. The cache
// and cluster simulations are deterministic functions of their inputs, so
// a change that leaves the program's behaviour alone reproduces
// golden.json bit for bit; `benchmark golden` rewrites the file after a
// change to the inputs (never to make a failing check pass).

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"buckwild"
	"buckwild/internal/machine"
	"buckwild/internal/sweep"
)

//go:embed golden.json
var goldenJSON []byte

// goldenFile is golden.json. Entries are keyed by the inputs that produced
// them, not by workload: workloads sharing a background phase share a pin.
type goldenFile struct {
	// GOARCH is where the pins were made. Floating-point results may
	// legitimately differ on another architecture (fused multiply-add),
	// so the pins apply there only.
	GOARCH string `json:"goarch"`
	Seed   uint64 `json:"seed"`
	// Sim maps a point list ("full", "short") to repetition seed to the
	// per-point statistics.
	Sim map[string]map[string][]simStat `json:"sim"`
	// Comm maps a comm input to its statistics.
	Comm map[string]commStat `json:"comm"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

func simListKey(in simInput) string {
	switch {
	case in.Tiny:
		return "tiny" // not pinned
	case in.Full:
		return "full"
	}
	return "short"
}

func commKey(in commInput) string {
	return fmt.Sprintf("n%d-m%d-ce%d-se%d", in.N, in.M, in.ClusterEpochs, in.SyncEpochs)
}

// applies reports whether the pins hold for this run: same architecture,
// and the run's seed is the pinned one.
func (g *goldenFile) applies(seed uint64) bool {
	return g != nil && g.GOARCH == runtime.GOARCH && g.Seed == seed
}

func (g *goldenFile) simFor(w workload, repSeed uint64) ([]simStat, bool) {
	if g == nil || g.GOARCH != runtime.GOARCH {
		return nil, false
	}
	s, ok := g.Sim[simListKey(w.Sim)][simGoldenKey(repSeed)]
	return s, ok
}

func (g *goldenFile) commFor(w workload, seed uint64) (commStat, bool) {
	if !g.applies(seed) {
		return commStat{}, false
	}
	s, ok := g.Comm[commKey(w.Comm)]
	return s, ok
}

// writeGolden recomputes every pin at the default seed and writes path.
func writeGolden(path string) error {
	g := goldenFile{GOARCH: runtime.GOARCH, Seed: defaultSeed,
		Sim: map[string]map[string][]simStat{}, Comm: map[string]commStat{}}
	for _, w := range workloads {
		key := simListKey(w.Sim)
		if g.Sim[key] == nil {
			g.Sim[key] = map[string][]simStat{}
			for rep := 0; rep < goldenSimReps; rep++ {
				seed := uint64(defaultSeed + rep)
				res, err := sweep.Simulate(machine.Xeon(), simPoints(w.Sim, seed), 0)
				if err != nil {
					return err
				}
				stats := make([]simStat, len(res))
				for i, r := range res {
					stats[i] = statOf(r)
				}
				g.Sim[key][simGoldenKey(seed)] = stats
			}
		}
		if _, done := g.Comm[commKey(w.Comm)]; done {
			continue
		}
		ds, err := buckwild.GenerateDense("D32fM32f", w.Comm.N, w.Comm.M, defaultSeed+seedCommData)
		if err != nil {
			return err
		}
		c := &runCtx{w: w, seed: defaultSeed}
		r, err := c.commOnce(ds, 0)
		if err != nil {
			return err
		}
		g.Comm[commKey(w.Comm)] = r.stat
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
