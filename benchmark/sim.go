package main

// sim.go is the simulated-machine phase: the experiments-all path. Each
// repetition drives a list of cold layouts through the sweep pool, then the
// same layouts under another variant or rounding strategy (memCache hits).

import (
	"context"
	"strconv"
	"time"

	"buckwild"
	"buckwild/internal/machine"
	"buckwild/internal/obs"
	"buckwild/internal/sweep"
)

// simStat is what golden.json pins of one simulated point: every number is
// a deterministic function of the layout and the seed.
type simStat struct {
	GNPS            float64 `json:"gnps"`
	Bound           string  `json:"bound"`
	Accesses        uint64  `json:"accesses"`
	CoherenceEvents uint64  `json:"coherence_events"`
	Steps           int     `json:"measured_steps"`
}

func statOf(r *machine.Result) simStat {
	return simStat{GNPS: r.GNPS, Bound: r.Bound, Accesses: r.Access.Total().Accesses,
		CoherenceEvents: r.CoherenceEvents, Steps: r.MeasuredSteps}
}

// goldenSimReps is how many repetition seeds golden.json pins.
const goldenSimReps = 3

// simPhase measures sim_accesses_per_s.
type simPhase struct {
	c              *runCtx
	span           openSpan // the current round's
	mc             machine.Config
	acct           account
	coldMS, memoUS []float64
	effs           []float64
}

func (c *runCtx) newSimPhase() (phase, error) {
	p := &simPhase{c: c, mc: machine.Xeon()}
	// Warm-up: one short list on a seed no repetition uses, so that the
	// first timed repetition does not pay for growing the heap to the
	// simulated hierarchy's size.
	_, err := sweep.Simulate(p.mc, simPoints(simInput{Tiny: c.w.Sim.Tiny}, c.seed+1<<32), c.p)
	return p, c.op(err)
}

// simMaxReps caps the repetitions: every one leaves its memoised points in
// the process-global cache.
const simMaxReps = 24

func (p *simPhase) round(slice time.Duration, last bool) error {
	p.span = p.c.rec.begin(p.c.root, "harness", "phase:sim")
	defer p.span.end()
	return p.acct.spend(slice, last, p.c.minReps(3), simMaxReps, p.rep)
}

func (p *simPhase) rep(i int) error {
	c := p.c
	// The memo is process-global and keyed by seed, so each repetition
	// needs a seed of its own to be cold again.
	seed := c.seed + c.simSeedOffset + uint64(i)
	cold := simPoints(c.w.Sim, seed)
	paired := pairedPoints(cold)
	// In the traced pass the pool's own sweep/task spans give the
	// per-point host time.
	var coldTr, pairedTr *buckwild.Tracer
	if c.traced() {
		coldTr, pairedTr = buckwild.NewTracer(1<<10), buckwild.NewTracer(1<<10)
	}
	sp := c.rec.begin(p.span.id, "sweep", "cold-list")
	coldStart := c.rec.now()
	t0 := time.Now()
	coldRes, err := sweep.SimulateEachCtx(obs.ContextWithTracer(context.Background(), coldTr), p.mc, cold, c.p, nil)
	coldWall := time.Since(t0)
	sp.end()
	if c.op(err) != nil {
		return err
	}
	sp2 := c.rec.begin(p.span.id, "sweep", "paired-list")
	t1 := time.Now()
	pairedRes, err := sweep.SimulateEachCtx(obs.ContextWithTracer(context.Background(), pairedTr), p.mc, paired, c.p, nil)
	pairedWall := time.Since(t1)
	sp2.end()
	if c.op(err) != nil {
		return err
	}
	var accesses uint64
	stats := make([]simStat, len(coldRes))
	for k, r := range coldRes {
		stats[k] = statOf(r)
		accesses += stats[k].Accesses
		// The paired point shares the cold point's memory simulation:
		// its access and coherence counts must be the very same.
		if pr := statOf(pairedRes[k]); pr.Accesses != stats[k].Accesses || pr.CoherenceEvents != stats[k].CoherenceEvents {
			c.checkf("sim: seed %d point %d: memoised pair counted %d accesses / %d coherence events, cold point %d / %d",
				seed, k, pr.Accesses, pr.CoherenceEvents, stats[k].Accesses, stats[k].CoherenceEvents)
		}
	}
	c.sample("sim_accesses_per_s", float64(accesses)/(coldWall+pairedWall).Seconds())
	c.checkGoldenSim(seed, stats)
	if c.traced() {
		var busy time.Duration
		for _, s := range taskSpans(coldTr) {
			p.coldMS = append(p.coldMS, float64(s.Dur.Nanoseconds())/1e6)
			busy += s.Dur
			c.rec.add(sp.id, "machine", "cold-point", coldStart+s.Start, s.Dur)
		}
		for _, s := range taskSpans(pairedTr) {
			p.memoUS = append(p.memoUS, float64(s.Dur.Nanoseconds())/1e3)
		}
		p.effs = append(p.effs, busy.Seconds()/(float64(min(c.p, len(cold)))*coldWall.Seconds()))
	}
	return nil
}

func (p *simPhase) finish() error {
	c := p.c
	if c.traced() {
		c.setLayer("machine.cold_point_ms_p50", median(p.coldMS))
		c.setLayer("machine.memo_point_us_p50", median(p.memoUS))
		c.setLayer("sweep.parallel_eff", median(p.effs))
	}
	return nil
}

// simGoldenKey names one pinned repetition.
func simGoldenKey(seed uint64) string { return strconv.FormatUint(seed, 10) }

func (c *runCtx) checkGoldenSim(seed uint64, got []simStat) {
	want, ok := c.golden.simFor(c.w, seed)
	if !ok {
		// Only the default seed's first repetitions are pinned; other
		// seeds rely on the cold-vs-pair consistency check above.
		return
	}
	if len(want) != len(got) {
		c.checkf("sim: seed %d: golden.json pins %d points, the run made %d", seed, len(want), len(got))
		return
	}
	for k := range got {
		if got[k] != want[k] {
			c.checkf("sim: seed %d point %d: simulated statistics %+v differ from golden %+v", seed, k, got[k], want[k])
		}
	}
}

// taskSpans are the sweep pool's per-point spans.
func taskSpans(t *buckwild.Tracer) []obs.Span {
	var out []obs.Span
	for _, s := range t.Snapshot().Spans {
		if s.Cat == "sweep" && s.Name == "task" {
			out = append(out, s)
		}
	}
	return out
}
