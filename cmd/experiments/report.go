package main

// This file is the experiments driver's side of the observability layer:
// -report collects per-experiment counters from both halves of the
// reproduction — simulated-machine sweeps (cache/coherence/access
// statistics via sweep.SimulateEachCtx) and real trainings (engine RunStats
// via core's Observer) — and writes one JSON document at the end of the
// run. Without -report nothing is collected and the trainings run
// uninstrumented.

import (
	"flag"
	"runtime"
	"time"

	"buckwild/internal/core"
	"buckwild/internal/machine"
	"buckwild/internal/obs"
	"buckwild/internal/sweep"
	"buckwild/internal/trace"
)

var reportPath = flag.String("report", "", "write a JSON observability report (per-experiment sim and training counters) to this file")

// reportExperiment is one experiment's entry in the -report document.
type reportExperiment struct {
	ID          string  `json:"id"`
	WallSeconds float64 `json:"wall_seconds"`
	// HeadlineGNPS is the best simulated throughput the experiment
	// produced, when it runs the machine simulator at all; it tracks
	// simulator-output drift across revisions alongside the timing.
	HeadlineGNPS float64 `json:"headline_gnps,omitempty"`
	// SimPoints and SimSteps total the experiment's simulator work:
	// sweep points run and per-core steps measured.
	SimPoints int `json:"sim_points,omitempty"`
	SimSteps  int `json:"sim_steps,omitempty"`
	// CoherenceEvents and ObstinateRejects total the simulated cache
	// hierarchy's coherence traffic across the experiment's sweeps.
	// Omitted (with Access) for pure-training experiments that never run
	// the simulator, so their entries don't carry zero-valued sim blocks.
	CoherenceEvents  uint64 `json:"coherence_events,omitempty"`
	ObstinateRejects uint64 `json:"obstinate_rejects,omitempty"`
	// Access breaks the simulated accesses down by trace kind; nil when
	// the experiment ran no simulation.
	Access *trace.AccessStats `json:"access,omitempty"`
	// Train aggregates the engine counters of the experiment's real
	// trainings (step counts, model writes, staleness histogram and the
	// numerical-health block); absent for pure-simulation experiments.
	Train *obs.RunStats `json:"train,omitempty"`
	// StalenessP50 and StalenessP99 are quantiles of the aggregated
	// staleness histogram, precomputed so report consumers need no
	// histogram arithmetic.
	StalenessP50 float64 `json:"staleness_p50,omitempty"`
	StalenessP99 float64 `json:"staleness_p99,omitempty"`
	// Supervisor totals the retry/checkpoint counters of the experiment's
	// supervised runs; absent when no supervisor ran.
	Supervisor *obs.SupervisorStats `json:"supervisor,omitempty"`
	// Cluster totals the simulated-interconnect accounting of the
	// experiment's cluster runs (exact wire bytes, simulated seconds,
	// update staleness); absent when no cluster run happened.
	Cluster *obs.ClusterStats `json:"cluster,omitempty"`
}

// runReport is the top-level -report document.
type runReport struct {
	Date         string             `json:"date"`
	GoVersion    string             `json:"go_version"`
	NumCPU       int                `json:"num_cpu"`
	Workers      int                `json:"workers"`
	Quick        bool               `json:"quick"`
	TotalSeconds float64            `json:"total_seconds"`
	Experiments  []reportExperiment `json:"experiments"`
}

// report is nil unless -report is set; currentRpt points at the running
// experiment's entry.
var (
	report     *runReport
	currentRpt *reportExperiment
)

// reportInit turns reporting on.
func reportInit(workers int, quick bool) {
	report = &runReport{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Workers:   workers,
		Quick:     quick,
	}
}

// reportStart opens the running experiment's entry.
func reportStart(id string) {
	if report == nil {
		return
	}
	report.Experiments = append(report.Experiments, reportExperiment{ID: id})
	currentRpt = &report.Experiments[len(report.Experiments)-1]
}

// reportFinish closes the entry with its timing.
func reportFinish(wallSeconds float64) {
	if currentRpt == nil {
		return
	}
	currentRpt.WallSeconds = wallSeconds
	if currentRpt.Train != nil {
		currentRpt.StalenessP50 = currentRpt.Train.Staleness.Quantile(0.5)
		currentRpt.StalenessP99 = currentRpt.Train.Staleness.Quantile(0.99)
	}
	currentRpt = nil
}

// reportSim folds one sweep point's machine statistics into the running
// entry, keeping the largest GNPS as the headline. sweep.SimulateEachCtx
// invokes it sequentially on the driver goroutine after the sweep
// completes, so no locking is needed.
func reportSim(_ int, r *machine.Result) {
	if currentRpt == nil || r == nil {
		return
	}
	currentRpt.HeadlineGNPS = max(currentRpt.HeadlineGNPS, r.GNPS)
	currentRpt.SimPoints++
	currentRpt.SimSteps += r.MeasuredSteps
	currentRpt.CoherenceEvents += r.CoherenceEvents
	currentRpt.ObstinateRejects += r.ObstinateRejects
	if currentRpt.Access == nil {
		currentRpt.Access = &trace.AccessStats{}
	}
	currentRpt.Access.Merge(r.Access)
}

// trainSweep trains ds once per sweep point, fanned out over -workers,
// and reports the runs' stats into the running entry after the sweep. A
// point's config that sets no Observer gets the default one under
// -report (counters, the staleness histogram and the numerical-health
// block) and none without it, the zero-cost path. Each run writes only
// its own result slot, so the points may train concurrently.
func trainSweep(ds core.Dataset, n int, config func(i int) core.Config) ([]*core.Result, error) {
	res, err := sweep.Map(*workers, n, func(i int) (*core.Result, error) {
		cfg := config(i)
		if cfg.Observer == nil && report != nil {
			cfg.Observer = &obs.Observer{NumHealth: true}
		}
		return core.Train(cfg, ds)
	})
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		reportTrain(r.Stats)
	}
	return res, nil
}

// finalLoss is a run's training loss after its last epoch.
func finalLoss(r *core.Result) float64 { return r.TrainLoss[len(r.TrainLoss)-1] }

// reportTrain merges training RunStats (one per sweep point; nil entries
// are skipped) into the running entry. Call it after sweep.Map returns —
// not from inside worker closures.
func reportTrain(stats ...*obs.RunStats) {
	if currentRpt == nil {
		return
	}
	for _, s := range stats {
		if s == nil {
			continue
		}
		if currentRpt.Train == nil {
			currentRpt.Train = &obs.RunStats{}
		}
		currentRpt.Train.Merge(s)
	}
}

// reportCluster merges cluster-run accounting (one per sweep point; nil
// entries are skipped) into the running entry. Call it after sweep.Map
// returns — not from inside worker closures.
func reportCluster(stats ...*obs.ClusterStats) {
	if currentRpt == nil {
		return
	}
	for _, s := range stats {
		if s == nil {
			continue
		}
		if currentRpt.Cluster == nil {
			currentRpt.Cluster = &obs.ClusterStats{}
		}
		currentRpt.Cluster.Merge(s)
	}
}

// reportSupervisor folds a supervised run's counters into the running
// entry; ResumedEpoch and FinalThreads take the latest run's values.
func reportSupervisor(ss *obs.SupervisorStats) {
	if currentRpt == nil || ss == nil {
		return
	}
	if currentRpt.Supervisor == nil {
		currentRpt.Supervisor = &obs.SupervisorStats{}
	}
	s := currentRpt.Supervisor
	s.Attempts += ss.Attempts
	s.Retries += ss.Retries
	s.Checkpoints += ss.Checkpoints
	s.CheckpointBytes += ss.CheckpointBytes
	s.Resumes += ss.Resumes
	s.ResumedEpoch = ss.ResumedEpoch
	s.InjectedCrashes += ss.InjectedCrashes
	s.InjectedStalls += ss.InjectedStalls
	s.CorruptedCheckpoints += ss.CorruptedCheckpoints
	s.CheckpointFallbacks += ss.CheckpointFallbacks
	s.StallsDetected += ss.StallsDetected
	s.Degradations += ss.Degradations
	s.FinalThreads = ss.FinalThreads
}

// reportWrite finalizes and writes the document.
func reportWrite(totalSeconds float64) error {
	if report == nil {
		return nil
	}
	report.TotalSeconds = totalSeconds
	return obs.WriteJSON(*reportPath, report)
}
