package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"buckwild"
)

// -update rewrites ../BENCHMARK.json from spec.go.
var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

func TestPickTail(t *testing.T) {
	// The highest ladder percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want string
	}{
		{1, "p50"}, {19, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"},
		{1000, "p99"}, {9999, "p99"}, {10000, "p999"}, {100000, "p9999"},
	} {
		if _, got := pickTail(tc.n); got != tc.want {
			t.Errorf("pickTail(%d) = %s, want %s", tc.n, got, tc.want)
		}
	}
	if p, label := tailAtMost99(1_000_000); p != 0.99 || label != "p99" {
		t.Errorf("tailAtMost99 of a long window = %v %s, want 0.99 p99", p, label)
	}
	if p, label := tailAtMost99(500); p != 0.9 || label != "p90" {
		t.Errorf("tailAtMost99 of a short window = %v %s, want 0.9 p90", p, label)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: "a", Start: 0, Dur: 100 * ms},
		// Two overlapping children: their union [10, 50) counts once.
		{ID: 2, Parent: 1, Layer: "b", Start: 10 * ms, Dur: 20 * ms},
		{ID: 3, Parent: 1, Layer: "b", Start: 20 * ms, Dur: 30 * ms},
		// A child reaching outside the parent counts only for [90, 100).
		{ID: 4, Parent: 1, Layer: "c", Start: 90 * ms, Dur: 30 * ms},
		// A grandchild is its parent's business, not the root's.
		{ID: 5, Parent: 3, Layer: "d", Start: 25 * ms, Dur: 5 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 25 * ms, 4: 30 * ms, 5: 5 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	byLayer := layerSelfSeconds(spans)
	if got := byLayer["b"]; math.Abs(got-0.045) > 1e-12 {
		t.Errorf("layer b self time = %v, want 0.045", got)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	sp := r.begin(0, "x", "y")
	sp.end()
	if r.add(0, "x", "y", 0, 1) != 0 || len(r.snapshot()) != 0 || r.now() != 0 {
		t.Error("a nil recorder recorded something")
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	in := workloadRun{
		Workload: "dense_large", Seed: 7, Seconds: 15, Env: envInfo{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "abc", P: 2, Loadavg: 0.25},
		Correct: true, Attempted: 10, Failed: 0,
		Metrics: map[string]metricValue{"train_nps": {Value: 2.3033272323412e8, Unit: "numbers/s"}},
		Samples: map[string][]float64{"train_nps": {2.3e8, 2.31e8}},
	}
	b, err := json.Marshal(runFile{Env: in.Env, Seed: 7, Seconds: 15, Runs: []workloadRun{in}})
	if err != nil {
		t.Fatal(err)
	}
	var out runFile
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Runs[0], in) {
		t.Errorf("round trip changed the run:\n got %+v\nwant %+v", out.Runs[0], in)
	}
	// The driver's line has exactly these four keys.
	line, err := json.Marshal(in.driverLine())
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("driver line keys = %s, want exactly correct, attempted, failed, metrics", line)
	}
}

func TestCompareRule(t *testing.T) {
	higherBetter := metricSpec{Name: "x", Better: higher, Bound: 0.10}
	lowerBetter := metricSpec{Name: "y", Better: lower, Bound: 0.10}
	seq := func(base, step float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = base + step*float64(i)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want verdict
	}{
		{"same code", higherBetter, seq(100, 0.2, 10), seq(100.1, 0.2, 10), verdictSame},
		{"within the bound", higherBetter, seq(100, 0.2, 10), seq(95, 0.2, 10), verdictSame},
		{"throughput fell 30%", higherBetter, seq(100, 0.2, 10), seq(70, 0.2, 10), verdictRegression},
		{"latency rose 30%", lowerBetter, seq(100, 0.2, 10), seq(130, 0.2, 10), verdictRegression},
		{"ten pairs, all wins, shift beyond the IQR", higherBetter, seq(100, 0.2, 10), seq(108, 0.2, 10), verdictBetter},
		{"a gain needs ten pairs", higherBetter, seq(100, 0.2, 5), seq(108, 0.2, 5), verdictSame},
		{"latency gain", lowerBetter, seq(100, 0.2, 10), seq(90, 0.2, 10), verdictBetter},
		{"spread wider than the bound", higherBetter, seq(100, 5, 10), seq(101, 5, 10), verdictUnresolved},
		{"wide spread, but every B worse than every A", higherBetter, seq(100, 5, 10), seq(20, 5, 10), verdictRegression},
		{"wide spread, a median shift inside it is not a gain", higherBetter, seq(100, 5, 10), seq(110, 5, 10), verdictUnresolved},
	} {
		if got := compareValues(tc.m, tc.a, tc.b).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	// Files: ten runs a side pair up run by run; a single run a side falls
	// back on its within-run repetitions.
	mk := func(vals ...float64) *runFile {
		f := &runFile{}
		for _, v := range vals {
			f.Runs = append(f.Runs, workloadRun{Workload: "dense_large",
				Metrics: map[string]metricValue{"train_nps": {Value: v}},
				Samples: map[string][]float64{"train_nps": {v, v * 1.01, v * 0.99}}})
		}
		return f
	}
	cs := compareFiles(mk(seq(100, 0.1, 10)...), mk(seq(60, 0.1, 10)...))
	if len(cs) != 1 || cs[0].Verdict != verdictRegression || cs[0].Pairs != 10 || cs[0].WithinRun {
		t.Errorf("ten-run files: %+v", cs)
	}
	cs = compareFiles(mk(100), mk(100.5))
	if len(cs) != 1 || cs[0].Verdict != verdictSame || !cs[0].WithinRun || cs[0].Pairs != 3 {
		t.Errorf("single-run files: %+v", cs)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchEndToEnd `json:"end_to_end"`
	PerLayer   []benchPerLayer `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// specJSON renders spec.go in BENCHMARK.json's schema.
func specJSON() benchmarkJSON {
	bj := benchmarkJSON{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		bj.Workloads = append(bj.Workloads, benchWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		bj.EndToEnd = append(bj.EndToEnd, benchEndToEnd{m.Name, m.Unit, string(m.Better), m.Bound})
	}
	for _, m := range perLayer {
		bj.PerLayer = append(bj.PerLayer, benchPerLayer{m.Name, m.Unit, string(m.Better)})
	}
	return bj
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	if *update {
		b, err := json.MarshalIndent(specJSON(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if want := specJSON(); bj.RunSeconds != want.RunSeconds || !reflect.DeepEqual(bj.Paths, want.Paths) || !reflect.DeepEqual(bj.Command, want.Command) {
		t.Errorf("command %v, paths %v, run_seconds %d; want %v, %v, %d", bj.Command, bj.Paths, bj.RunSeconds, want.Command, want.Paths, want.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %s / %s", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		g := bj.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != string(m.Better) || g.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go %+v", i, g, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (limit 128)", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		g := bj.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != string(m.Better) {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go %+v", i, g, m)
		}
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("per-layer %s: duplicate, or name/unit too long", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestTinySmoke runs all six workloads at -scale tiny: every end-to-end
// metric is there and non-zero, every output check passes, and the whole
// thing stays cheap enough for `go test`.
func TestTinySmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		res, err := runWorkload(w, runOpts{seed: defaultSeed, seconds: 0.2, scale: "tiny"})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct {
			t.Errorf("%s: output checks failed: %v", w.Name, res.CheckErrors)
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, res.Attempted, res.Failed)
		}
		for _, m := range endToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
				t.Errorf("%s: %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("tiny smoke of six workloads took %v, want < 5s", d)
	}
}

// TestTinyTraced checks that the traced run prints every per-layer metric
// and that the workloads separate the layers as designed even when tiny:
// the kernels are a larger share of a dense step than of a sparse one.
func TestTinyTraced(t *testing.T) {
	share := map[string]float64{}
	for _, name := range []string{"dense_large", "sparse_supervised", "serve_train"} {
		w, _ := findWorkload(name)
		tracePath := t.TempDir() + "/trace.json"
		res, err := runWorkload(w, runOpts{seed: defaultSeed, seconds: 0.3, trace: true, scale: "tiny", traceOut: tracePath})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: output checks failed: %v", name, res.CheckErrors)
		}
		for _, m := range perLayer {
			v, ok := res.Metrics[m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v)", name, m.Name, v, ok)
			}
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics printed, want the %d per-layer ones", name, len(res.Metrics), len(perLayer))
		}
		share[name] = res.Metrics["kernels.step_share"].Value
		var trace struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		b, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace file: %v, %d events", name, err, len(trace.TraceEvents))
		}
	}
	if !(share["dense_large"] > 0 && share["sparse_supervised"] > 0) {
		t.Errorf("kernels.step_share: dense %v, sparse %v", share["dense_large"], share["sparse_supervised"])
	}
}

// The output checks must fail the run when an output is wrong: a corrupted
// golden value and a corrupted served margin each turn Correct to false
// (and the command's exit status to non-zero, see cmdWorkload).
func TestCorruptedGoldenFailsTheRun(t *testing.T) {
	// Through the whole command path: serve_only at -scale tiny but with
	// the real short point list, so that the simulator's pins apply.
	w, _ := findWorkload("serve_only")
	w = w.tiny()
	w.Sim = bgSim
	res, err := runWorkload(w, runOpts{seed: defaultSeed, seconds: 0.2, corrupt: corruption{golden: func(g *goldenFile) {
		g.Sim[simListKey(w.Sim)][simGoldenKey(defaultSeed)][0].Accesses++
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || !strings.Contains(strings.Join(res.CheckErrors, "\n"), "differ from golden") {
		t.Errorf("a corrupted golden value went unnoticed: correct %v, errors %v", res.Correct, res.CheckErrors)
	}
	if res, err = runWorkload(w, runOpts{seed: defaultSeed, seconds: 0.2}); err != nil || !res.Correct {
		t.Errorf("pristine golden.json: %v, %+v", err, res)
	}

	// The comm pins are keyed by the comm input; run the real background
	// input with one pinned byte count changed.
	w, _ = findWorkload("serve_only")
	c := &runCtx{w: w, seed: defaultSeed, seconds: 0.1, p: threads(), samples: map[string][]float64{}, layer: map[string]float64{}}
	var err2 error
	if c.golden, err2 = loadGolden(); err2 != nil {
		t.Fatal(err2)
	}
	key := commKey(w.Comm)
	pin := c.golden.Comm[key]
	if len(pin.Cluster) == 0 {
		t.Fatalf("golden.json has no comm pin for %s", key)
	}
	ds, err := buckwild.GenerateDense("D32fM32f", w.Comm.N, w.Comm.M, defaultSeed+seedCommData)
	if err != nil {
		t.Fatal(err)
	}
	in := &inputs{commData: ds}
	commPhase := func() {
		ph, err := c.newCommPhase(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := ph.round(0, true); err != nil {
			t.Fatal(err)
		}
		if err := ph.finish(); err != nil {
			t.Fatal(err)
		}
	}
	if commPhase(); len(c.checkErrs) != 0 {
		t.Fatalf("pristine golden.json: %v", c.checkErrs)
	}
	ps8 := pin.Cluster["ps8"]
	ps8.WireBytes++
	pin.Cluster["ps8"] = ps8
	if commPhase(); len(c.checkErrs) == 0 {
		t.Error("a corrupted comm pin went unnoticed")
	}
}

func TestCorruptedServedMarginFailsTheRun(t *testing.T) {
	w, _ := findWorkload("serve_only")
	res, err := runWorkload(w, runOpts{seed: defaultSeed, seconds: 0.2, scale: "tiny", corrupt: corruption{servedMargin: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || !strings.Contains(strings.Join(res.CheckErrors, "\n"), "differ from Model.Predict") {
		t.Errorf("a corrupted served margin went unnoticed: correct %v, errors %v", res.Correct, res.CheckErrors)
	}
}
