// Command dmgc works with DMGC signatures (Section 3 of the paper): it
// parses and explains a signature, predicts its throughput with the
// Section 4 performance model, and prints the taxonomy of prior work.
//
//	dmgc classify D8M16G32C32
//	dmgc predict D8M8 -n 1048576 -threads 18
//	dmgc table1
//	dmgc simulate D8M8 -n 1048576 -threads 18
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"buckwild"
	"buckwild/internal/dmgc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dmgc: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "classify":
		classify(args)
	case "predict":
		predict(args)
	case "simulate":
		simulate(args)
	case "stat":
		stat(args)
	case "table1":
		for _, r := range dmgc.Table1() {
			fmt.Printf("%-34s %-10s %s\n", r.Paper, r.Signature, r.Note)
		}
	default:
		usage()
		os.Exit(2)
	}
}

// fatal prints err under the command's "dmgc: " log prefix once: errors
// from internal/dmgc and from the buckwild facade carry their package's
// own prefix, which would otherwise stutter.
func fatal(err error) {
	msg := strings.TrimPrefix(err.Error(), "dmgc: ")
	log.Fatal(strings.TrimPrefix(msg, "buckwild: "))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  dmgc classify <signature>                  explain a signature
  dmgc predict <signature> [-n N -threads T] performance-model throughput
  dmgc simulate <signature> [-n N -threads T] simulated-machine throughput
  dmgc stat <signature> [-n N -threads T -eta E] statistical-efficiency model
  dmgc table1                                prior-work taxonomy`)
}

func classify(args []string) {
	if len(args) != 1 {
		usage()
		os.Exit(2)
	}
	sig, err := dmgc.Parse(args[0])
	if err != nil {
		fatal(err)
	}
	fmt.Printf("signature      %s\n", sig)
	fmt.Printf("dataset        %d bits%s\n", sig.DatasetBits(), floatNote(sig.D))
	if sig.Sparse() {
		fmt.Printf("index          %d bits (sparse problem)\n", sig.IndexBits())
	} else {
		fmt.Printf("index          (dense problem)\n")
	}
	fmt.Printf("model          %d bits%s\n", sig.ModelBits(), floatNote(sig.M))
	if sig.G.Present {
		fmt.Printf("gradients      %d bits%s\n", sig.G.Bits, floatNote(sig.G))
	} else {
		fmt.Printf("gradients      equivalent to full precision (G omitted)\n")
	}
	switch {
	case !sig.C.Present:
		fmt.Printf("communication  implicit via cache coherence (Hogwild!-style, asynchronous)\n")
	case sig.CSync:
		fmt.Printf("communication  explicit, %d bits, synchronous\n", sig.C.Bits)
	default:
		fmt.Printf("communication  explicit, %d bits, asynchronous\n", sig.C.Bits)
	}
	fmt.Printf("bytes/element  %.2f (dataset stream)\n", sig.BytesPerElement())
}

func floatNote(t dmgc.Term) string {
	if t.Present && t.Float {
		return " (floating point)"
	}
	if !t.Present {
		return " (term omitted: full precision)"
	}
	return " (fixed point)"
}

func predict(args []string) {
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	sigText := args[0]
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	n := fs.Int("n", 1<<20, "model size")
	threads := fs.Int("threads", 18, "thread count")
	if err := fs.Parse(args[1:]); err != nil {
		fatal(err)
	}
	sig, err := dmgc.Parse(sigText)
	if err != nil {
		fatal(err)
	}
	pm := dmgc.DefaultPerfModel()
	gnps, err := pm.Throughput(sig, *n, *threads)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s at n=%d, %d threads: %.3f GNPS (%s, p=%.3f)\n",
		sig, *n, *threads, gnps, pm.Regime(*n), pm.P(*n))
}

// stat applies the first-principles statistical model (the other half of
// the DMGC model: Section 3 notes a signature suffices to model statistical
// efficiency via the Taming-the-Wild analysis).
func stat(args []string) {
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	sigText := args[0]
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	n := fs.Int("n", 1024, "model size")
	threads := fs.Int("threads", 18, "thread count")
	eta := fs.Float64("eta", 0.01, "step size")
	mu := fs.Float64("mu", 0.1, "strong convexity")
	lip := fs.Float64("L", 1, "smoothness")
	m2 := fs.Float64("m2", 1, "gradient second moment")
	if err := fs.Parse(args[1:]); err != nil {
		fatal(err)
	}
	sig, err := dmgc.Parse(sigText)
	if err != nil {
		fatal(err)
	}
	prob := dmgc.StatProblem{N: *n, Mu: *mu, L: *lip, M2: *m2}
	pred, err := dmgc.PredictStatistics(sig, prob, *eta, *threads)
	if err != nil {
		fatal(err)
	}
	maxStep, _ := dmgc.MaxStableStep(prob, *threads)
	fmt.Printf("%s, n=%d, eta=%g, %d threads:\n", sig, *n, *eta, *threads)
	fmt.Printf("  per-step contraction    %.6f (rate %.6f)\n", 1-pred.Rate, pred.Rate)
	fmt.Printf("  noise ball (E|w-w*|^2)  %.6g\n", pred.NoiseBall)
	fmt.Printf("    gradient variance     %.6g\n", pred.GradientTerm)
	fmt.Printf("    quantization          %.6g\n", pred.QuantizeTerm)
	fmt.Printf("    asynchrony            %.6g\n", pred.StalenessTerm)
	fmt.Printf("  steps to ball from r0^2=1: %.0f\n", pred.StepsTo(1))
	fmt.Printf("  max stable step at %d threads: %.4g\n", *threads, maxStep)
}

func simulate(args []string) {
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	sigText := args[0]
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	n := fs.Int("n", 1<<20, "model size")
	threads := fs.Int("threads", 18, "thread count")
	if err := fs.Parse(args[1:]); err != nil {
		fatal(err)
	}
	r, err := buckwild.SimulateThroughput(context.Background(), sigText, *n, *threads)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s at n=%d, %d threads on the simulated Xeon:\n", sigText, *n, *threads)
	fmt.Printf("  %.3f GNPS, bound by %s\n", r.GNPS, r.Bound)
	fmt.Printf("  compute %.0f cycles/step, memory %.0f cycles/step (%.0f coherence)\n",
		r.ComputeCyclesPerStep, r.MemCyclesPerStep, r.CoherenceCyclesPerStep)
}
