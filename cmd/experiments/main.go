// Command experiments regenerates every table and figure of the paper's
// evaluation on the reproduction's simulated machine and training engine.
//
// Usage:
//
//	experiments [-quick] [-workers n] [-report path] [-trace path] [-cpuprofile path] <id> [<id> ...]
//	experiments all
//
// where <id> is one of: table1 table2 table3 fig2 fig3 fig4a fig4b fig4c
// fig5a fig5b fig5c fig6a fig6b fig6c fig6d fig6e fig6f fig7a fig7b fig7c
// fig7d fig7e fig7f newinsn numa ablations faulttol healthsweep.
//
// -quick shrinks sweep sizes for smoke runs. -workers bounds the sweep
// worker pool (0 = all CPUs). -report writes a JSON observability report
// with per-experiment wall times, headline GNPS, simulator statistics
// (steps, coherence events, access latencies) and training counters
// (model writes, staleness histogram); -trace writes a Chrome
// trace_event JSON timeline of the run (one span per experiment, per
// sweep task, per simulated-machine phase, and per training epoch —
// load it at https://ui.perfetto.dev or summarize it with
// `buckwild trace-summary`); -cpuprofile writes a pprof CPU
// profile of the whole run. Output is plain text: one labelled
// series or table per experiment, in the same shape as the paper's
// figure/table, so results can be compared row by row (see EXPERIMENTS.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"buckwild/internal/machine"
	"buckwild/internal/obs"
	"buckwild/internal/sweep"
)

// experiment is one regenerable table or figure.
type experiment struct {
	id   string
	desc string
	run  func(quick bool) error
}

var experiments []experiment

func register(id, desc string, run func(quick bool) error) {
	experiments = append(experiments, experiment{id, desc, run})
}

// workers is the sweep pool size shared by every experiment (0 = all CPUs).
var workers = flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")

// runCtx bounds every sweep: it is cancelled by SIGINT/SIGTERM, so ^C
// stops an hours-long "all" run at the next simulation round instead of
// requiring a kill.
var runCtx = context.Background()

// simulateAll fans a slice of workload points over the sweep pool and
// returns results in input order. Every experiment sweep goes through
// here, so each also contributes its headline GNPS and per-point machine
// statistics to the -report document, and each is interruptible through
// runCtx.
func simulateAll(mc machine.Config, points []machine.Workload) ([]*machine.Result, error) {
	return sweep.SimulateEachCtx(runCtx, mc, points, *workers, reportSim)
}

func main() {
	quick := flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON timeline of the run to this file")
	traceCap := flag.Int("trace-capacity", 4*obs.DefaultTraceCapacity, "trace ring capacity in spans (oldest dropped beyond it)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The tracer rides runCtx: sweep workers and the machine simulator
	// pick it up from the context, and training experiments inherit it
	// through core's context fallback, so no experiment needs changing to
	// be traced.
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(*traceCap)
		ctx = obs.ContextWithTracer(ctx, tracer)
	}
	runCtx = ctx
	// Validate output writability up front: a bad path should fail before
	// the sweeps run, not after minutes of work. O_CREATE without O_TRUNC
	// leaves any existing file intact until the run completes and
	// rewrites it.
	for name, path := range map[string]string{"report": *reportPath, "trace": *tracePath} {
		if path == "" {
			continue
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		f.Close()
	}
	if *reportPath != "" {
		reportInit(*workers, *quick)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	sort.SliceStable(experiments, func(i, j int) bool { return experiments[i].id < experiments[j].id })
	ids := args
	if len(args) == 1 && args[0] == "all" {
		ids = nil
		for _, e := range experiments {
			ids = append(ids, e.id)
		}
	}
	total := time.Now()
	for _, id := range ids {
		e := lookup(id)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", id)
			usage()
			os.Exit(2)
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.desc)
		reportStart(e.id)
		expSpan := tracer.Begin("experiment", e.id, 0)
		start := time.Now()
		if err := e.run(*quick); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "%s interrupted\n", e.id)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		expSpan.End()
		reportFinish(elapsed.Seconds())
		fmt.Printf("---- %s done in %v ----\n\n", e.id, elapsed.Round(time.Millisecond))
	}
	if err := reportWrite(time.Since(total).Seconds()); err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}
	if *tracePath != "" {
		if err := tracer.WriteTraceFile(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d spans -> %s\n", tracer.SpanCount(), *tracePath)
	}
}

func lookup(id string) *experiment {
	for i := range experiments {
		if experiments[i].id == id {
			return &experiments[i]
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments [-quick] [-workers n] [-report path] [-trace path] [-cpuprofile path] <id> [<id> ...] | all")
	fmt.Fprintln(os.Stderr, "experiments:")
	sort.SliceStable(experiments, func(i, j int) bool { return experiments[i].id < experiments[j].id })
	for _, e := range experiments {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.id, e.desc)
	}
}

// header prints an aligned column header.
func header(cols ...string) {
	for _, c := range cols {
		fmt.Printf("%-14s", c)
	}
	fmt.Println()
}

// row prints aligned cells.
func row(cells ...interface{}) {
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			fmt.Printf("%-14.4g", v)
		case string:
			fmt.Printf("%-14s", v)
		default:
			fmt.Printf("%-14v", v)
		}
	}
	fmt.Println()
}
