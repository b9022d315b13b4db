// Command benchmark is the repository's benchmark: six workloads, eleven
// end-to-end metrics, and a traced run that attributes time to layers.
//
//	benchmark all [-seed S] [-seconds N] [-trace] [-runs K] [-out run.json]
//	benchmark compare a.json b.json
//	benchmark list
//	benchmark --workload NAME --seed S --seconds N --trace 0|1
//
// The last form is what the acceptance driver calls: one workload in this
// process, the metrics as one JSON object on the last line of standard
// output. `all` runs every workload that way, each in a child process of
// its own so that memo caches, the heap and the peak RSS of one workload do
// not leak into the next. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; {
	case cmd == "all":
		err = cmdAll(os.Args[2:])
	case cmd == "compare":
		err = cmdCompare(os.Args[2:])
	case cmd == "list":
		printList(os.Stdout)
	case cmd == "golden":
		err = cmdGolden(os.Args[2:])
	case strings.HasPrefix(cmd, "-"):
		err = cmdWorkload(os.Args[1:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchmark all [-seed S] [-seconds N] [-trace] [-runs K] [-scale tiny] [-out run.json] [-trace-out DIR]
  benchmark compare a.json b.json
  benchmark list
  benchmark golden [-o golden.json]
  benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--scale tiny] [--out FILE] [--trace-out FILE]`)
}

// errIncorrect is returned after the results are printed when an output
// check failed, so that the command exits non-zero.
var errIncorrect = fmt.Errorf("an output check failed")

// cmdWorkload is the driver form: one workload in this process.
func cmdWorkload(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see `benchmark list`)")
	seed := fs.Uint64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds of measurement, split over the workload's phases")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	scale := fs.String("scale", "", `"tiny" shrinks the inputs (smoke tests)`)
	out := fs.String("out", "", "also write the full result (samples, environment) here as JSON")
	traceOut := fs.String("trace-out", "", "traced run: write the spans here as Chrome trace JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (see `benchmark list`)", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	res, err := runWorkload(w, runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: *scale, traceOut: *traceOut})
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeJSONFile(*out, res); err != nil {
			return err
		}
	}
	printRun(os.Stdout, res)
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// cmdAll runs every workload, each in a child process, and prints every
// metric by name; with -trace it then repeats them traced.
func cmdAll(args []string) error {
	fs := flag.NewFlagSet("benchmark all", flag.ContinueOnError)
	seed := fs.Uint64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds of measurement per workload")
	trace := fs.Bool("trace", false, "repeat the workloads traced and print the per-layer metrics")
	runs := fs.Int("runs", 1, "untraced runs per workload (compare wants ten for a claimed gain)")
	scale := fs.String("scale", "", `"tiny" shrinks the inputs (smoke tests)`)
	out := fs.String("out", "", "write every run here as JSON (the input of `benchmark compare`)")
	traceOut := fs.String("trace-out", "", "with -trace: directory for one Chrome trace file per workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".bench_build", "all-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if *traceOut != "" {
		if err := os.MkdirAll(*traceOut, 0o755); err != nil {
			return err
		}
	}

	file := runFile{Env: readEnv(), Seed: *seed, Seconds: *seconds}
	incorrect := false
	child := func(w workload, traced bool) error {
		resPath := filepath.Join(tmp, "run.json")
		cargs := []string{"--workload", w.Name, "--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds), "--out", resPath}
		if *scale != "" {
			cargs = append(cargs, "--scale", *scale)
		}
		if traced {
			cargs = append(cargs, "--trace", "1")
			if *traceOut != "" {
				cargs = append(cargs, "--trace-out", filepath.Join(*traceOut, w.Name+".trace.json"))
			}
		}
		cmd := exec.Command(self, cargs...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		// The child's last line is the driver's JSON object; the table
		// above it is what a person reads.
		report := strings.TrimRight(stdout.String(), "\n")
		if i := strings.LastIndexByte(report, '\n'); i >= 0 {
			fmt.Println(report[:i])
		}
		b, err := os.ReadFile(resPath)
		if err != nil {
			// No result file: the child failed before it had one.
			return fmt.Errorf("workload %s: %w", w.Name, runErr)
		}
		os.Remove(resPath)
		var res workloadRun
		if err := json.Unmarshal(b, &res); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
		incorrect = incorrect || !res.Correct
		file.Runs = append(file.Runs, res)
		return nil
	}
	for r := 0; r < *runs; r++ {
		for _, w := range workloads {
			if err := child(w, false); err != nil {
				return err
			}
		}
	}
	if *trace {
		for _, w := range workloads {
			if err := child(w, true); err != nil {
				return err
			}
		}
		fullRunOverhead(&file)
	}
	if *out != "" {
		if err := writeJSONFile(*out, file); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// fullRunOverhead replaces each traced run's in-run estimate of
// harness.trace_overhead_ratio with the ratio against the full untraced
// run of the same workload, which `all -trace` has at hand.
func fullRunOverhead(f *runFile) {
	untraced := map[string]*workloadRun{}
	for i := range f.Runs {
		if r := &f.Runs[i]; !r.Trace {
			untraced[r.Workload] = r
		}
	}
	for i := range f.Runs {
		r := &f.Runs[i]
		w, ok := findWorkload(r.Workload)
		if !r.Trace || !ok || untraced[r.Workload] == nil {
			continue
		}
		base := untraced[r.Workload].Metrics[w.PrimaryMetric].Value
		traced := r.TracedPrimary
		if base == 0 || traced == 0 {
			continue
		}
		ratio := base / traced
		if m, _ := findMetric(w.PrimaryMetric); m.Better == lower {
			ratio = traced / base
		}
		r.Metrics["harness.trace_overhead_ratio"] = metricValue{Value: ratio, Unit: "ratio"}
		fmt.Printf("workload %s: harness.trace_overhead_ratio against the full untraced run = %.4f (%s %.6g untraced, %.6g traced)\n",
			r.Workload, ratio, w.PrimaryMetric, base, traced)
	}
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("compare wants two run files: benchmark compare a.json b.json")
	}
	a, err := readRunFile(args[0])
	if err != nil {
		return err
	}
	b, err := readRunFile(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("A = %s (commit %s, seed %d), B = %s (commit %s, seed %d)\n", args[0], a.Env.Commit, a.Seed, args[1], b.Env.Commit, b.Seed)
	cs := compareFiles(a, b)
	if len(cs) == 0 {
		return fmt.Errorf("the two files share no (workload, metric) pairing")
	}
	if regressions, _ := printComparison(os.Stdout, cs); regressions > 0 {
		return fmt.Errorf("%d pairings regressed beyond their bound", regressions)
	}
	return nil
}

func cmdGolden(args []string) error {
	fs := flag.NewFlagSet("benchmark golden", flag.ContinueOnError)
	path := fs.String("o", "golden.json", "file to write (the one beside the sources is embedded at build time)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return writeGolden(*path)
}
