package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// runFile is what `benchmark all -out` writes and `benchmark compare`
// reads: every workload run made, untraced and traced, with the
// environment they ran in.
type runFile struct {
	Env     envInfo       `json:"env"`
	Seed    uint64        `json:"seed"`
	Seconds float64       `json:"seconds"`
	Runs    []workloadRun `json:"runs"`
}

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// driverLine is the last line of the driver-mode output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *workloadRun) driverLine() driverLine {
	return driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// printRun prints every metric of one run by name, with unit, direction,
// median, quartiles and sample count (end-to-end), or value (per-layer).
func printRun(w io.Writer, r *workloadRun) {
	e := r.Env
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	noisy := ""
	if e.Noisy {
		noisy = " NOISY"
	}
	fmt.Fprintf(w, "workload %s (%s, seed %d, %g s, P=%d, nproc=%d, GOMAXPROCS=%d, %s, commit %s, loadavg %.2f%s, wall %.1f s)\n",
		r.Workload, mode, r.Seed, r.Seconds, e.P, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Loadavg, noisy, r.WallS)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	if !r.Trace {
		fmt.Fprintln(tw, "  metric\tunit\tbetter\tmedian\tq1\tq3\tn\t")
		for _, m := range endToEnd {
			s := r.Samples[m.Name]
			q1, _, q3 := quartiles(s)
			name := m.Name
			if m.Name == "req_p99_us" && r.TailLabel != "" && r.TailLabel != "p99" {
				name += " (" + r.TailLabel + ")"
			}
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t\n", name, m.Unit, m.Better, r.Metrics[m.Name].Value, q1, q3, len(s))
		}
	} else {
		fmt.Fprintln(tw, "  layer\tmetric\tunit\tbetter\tvalue\t")
		for _, m := range perLayer {
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%.6g\t\n", m.Layer, m.Name, m.Unit, m.Better, r.Metrics[m.Name].Value)
		}
	}
	tw.Flush()
	if len(r.LayerSelfS) > 0 {
		layers := make([]string, 0, len(r.LayerSelfS))
		for l := range r.LayerSelfS {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return r.LayerSelfS[layers[i]] > r.LayerSelfS[layers[j]] })
		fmt.Fprint(w, "  self time by layer:")
		for _, l := range layers {
			fmt.Fprintf(w, " %s %.3fs", l, r.LayerSelfS[l])
		}
		fmt.Fprintln(w)
	}
	for _, e := range r.CheckErrors {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", e)
	}
	fmt.Fprintf(w, "  outputs correct: %v (%d operations attempted, %d failed)\n", r.Correct, r.Attempted, r.Failed)
}

// printList prints every metric name, unit, direction and bound, and every
// workload, without running anything.
func printList(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "end-to-end metric\tunit\tbetter\tbound\tdefinition\t")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f%%\t%s\t\n", m.Name, m.Unit, m.Better, m.Bound*100, m.Doc)
	}
	fmt.Fprintln(tw, "\t\t\t\t\t")
	fmt.Fprintln(tw, "per-layer metric\tunit\tbetter\tlayer\tdefinition\t")
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t\n", m.Name, m.Unit, m.Better, m.Layer, m.Doc)
	}
	fmt.Fprintln(tw, "\t\t\t\t\t")
	fmt.Fprintln(tw, "workload\tprimary phase\tprimary metric\t\twhy\t")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t%s\t%s\t\t%s\t\n", wl.Name, phaseNames[wl.Primary], wl.PrimaryMetric, wl.Why)
	}
	tw.Flush()
}
