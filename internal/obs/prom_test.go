package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestPromFloat(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0"}, {42, "42"}, {-3, "-3"}, {0.25, "0.25"},
	} {
		if got := promFloat(tc.in); got != tc.want {
			t.Errorf("promFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if got := promFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("promFloat(+Inf) = %q", got)
	}
	if got := promFloat(math.NaN()); got != "NaN" {
		t.Errorf("promFloat(NaN) = %q", got)
	}
}

func TestWriteRunStatsProm(t *testing.T) {
	rs := &RunStats{
		Steps: 1000, MutexWaits: 5, SampledSteps: 100,
		ModelWrites: map[string]uint64{"xorshift": 990, "biased": 10},
	}
	rs.Staleness.Observe(0)
	rs.Staleness.Observe(0)
	rs.Staleness.Observe(3) // bucket [2,4) -> le="3"
	ss := &SupervisorStats{Attempts: 2, Retries: 1, Checkpoints: 4, Resumes: 1, FinalThreads: 2}
	var buf bytes.Buffer
	if err := runStatsProm(&buf, rs, ss); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE buckwild_steps_total counter",
		"buckwild_steps_total 1000",
		`buckwild_model_writes_total{rounding="biased"} 10`,
		`buckwild_model_writes_total{rounding="xorshift"} 990`,
		"# TYPE buckwild_staleness histogram",
		`buckwild_staleness_bucket{le="0"} 2`,
		`buckwild_staleness_bucket{le="3"} 3`, // cumulative
		`buckwild_staleness_bucket{le="+Inf"} 3`,
		"buckwild_staleness_sum 3",
		"buckwild_staleness_count 3",
		"buckwild_supervisor_attempts_total 2",
		"buckwild_supervisor_final_threads 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// Headers appear exactly once per metric.
	if n := strings.Count(out, "# TYPE buckwild_model_writes_total"); n != 1 {
		t.Errorf("model_writes TYPE header appears %d times", n)
	}
}

// runStatsProm renders a finished run's totals on their own.
func runStatsProm(w io.Writer, rs *RunStats, ss *SupervisorStats) error {
	p := newPromWriter(w)
	writeRunStatsProm(p, rs, ss)
	return p.err
}

func TestLiveMetricsEndpoint(t *testing.T) {
	m := &LiveMetrics{}
	sf := &Surface{Live: m, Series: NewSeries(4)}
	mux := http.NewServeMux()
	sf.Mount(mux)
	var hooks Hooks = m
	hooks.OnEpoch(EpochInfo{Epoch: 3, Loss: 0.125, Steps: 300})
	hooks.OnStep(StepInfo{Staleness: 2})
	hooks.OnStep(StepInfo{Staleness: 0})
	hooks.OnCheckpoint(CheckpointInfo{Epoch: 3, Bytes: 512})
	hooks.OnRetry(RetryInfo{Attempt: 1, ResumeEpoch: 2})
	sf.Series.EpochTick(3, 0.125, 300, 0)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"buckwild_epochs_completed 3",
		"buckwild_train_loss 0.125",
		"buckwild_live_sampled_steps_total 2",
		"buckwild_checkpoints_total 1",
		"buckwild_checkpoint_bytes_total 512",
		"buckwild_retries_total 1",
		"buckwild_resume_epoch 2",
		"# TYPE buckwild_live_staleness histogram",
		`buckwild_live_staleness_bucket{le="+Inf"} 2`,
		"buckwild_window_loss 0.125",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q\n%s", want, out)
		}
	}

	// SetFinal adds the authoritative totals to later scrapes.
	m.SetFinal(&RunStats{Steps: 300}, &SupervisorStats{Attempts: 2})
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out = rec.Body.String()
	if !strings.Contains(out, "buckwild_steps_total 300") ||
		!strings.Contains(out, "buckwild_supervisor_attempts_total 2") {
		t.Errorf("post-final scrape missing totals\n%s", out)
	}
}

func TestLiveMetricsNilSeries(t *testing.T) {
	sf := &Surface{Live: &LiveMetrics{}} // no Series: window gauges just absent
	var buf bytes.Buffer
	if err := sf.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "buckwild_window_") {
		t.Error("window gauges should be absent without a Series")
	}
}

// TestHistogramConcurrentMerge exercises concurrent Observe against a
// lock-free Histogram while snapshots of other histograms merge into an
// accumulator — the pattern the report aggregation uses.
func TestHistogramConcurrentMerge(t *testing.T) {
	const workers, each = 8, 2000
	var hs [workers]Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				hs[w].Observe(uint64(i % 16))
			}
		}(w)
	}
	wg.Wait()
	var acc HistSnapshot
	for w := range hs {
		acc.Merge(hs[w].Snapshot())
	}
	if acc.Count != workers*each {
		t.Errorf("merged count %d, want %d", acc.Count, workers*each)
	}
	var want uint64
	for i := 0; i < each; i++ {
		want += uint64(i % 16)
	}
	if acc.Sum != workers*want {
		t.Errorf("merged sum %d, want %d", acc.Sum, workers*want)
	}
	if acc.Max != 15 {
		t.Errorf("merged max %d, want 15", acc.Max)
	}
	var n uint64
	for i, b := range acc.Buckets {
		n += b.N
		if i > 0 && acc.Buckets[i-1].Lo >= b.Lo {
			t.Errorf("buckets out of order at %d: %+v", i, acc.Buckets)
		}
	}
	if n != acc.Count {
		t.Errorf("bucket sum %d != count %d", n, acc.Count)
	}
}

// TestWriteRunStatsPromNumHealth checks the numerical-health exposition:
// metric presence, site-label escaping, and header uniqueness.
func TestWriteRunStatsPromNumHealth(t *testing.T) {
	rs := &RunStats{
		Steps: 10,
		NumHealth: &NumStats{
			SatBySite: map[string]uint64{
				"saturate":    7,
				`odd"site\2`:  1, // exercises label escaping
				"muladd8to16": 2,
			},
			Saturations: 10,
			Underflows:  4,
			Bias:        RoundingBias{Mode: "biased", Samples: 8, SumQuanta: -2},
			Weights:     &WeightStats{Epoch: 3, Count: 100, Min: -2, Max: 1.5, Mean: 0.25, AtBounds: 6},
		},
	}
	var buf bytes.Buffer
	if err := runStatsProm(&buf, rs, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE buckwild_num_saturations_total counter",
		"buckwild_num_saturations_total 10",
		`buckwild_num_site_saturations_total{site="saturate"} 7`,
		// %q escaping: the quote and backslash in the label must come out
		// escaped, per the exposition format.
		`buckwild_num_site_saturations_total{site="odd\"site\\2"} 1`,
		"buckwild_num_underflows_total 4",
		"buckwild_rounding_bias_samples_total 8",
		"# TYPE buckwild_rounding_bias_mean_quanta gauge",
		"buckwild_rounding_bias_mean_quanta -0.25",
		"buckwild_weights_at_bounds 6",
		"buckwild_weight_min -2",
		"buckwild_weight_max 1.5",
		"buckwild_weight_mean 0.25",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE buckwild_num_site_saturations_total"); n != 1 {
		t.Errorf("site TYPE header appears %d times", n)
	}
	// Without NumHealth the health family is absent entirely.
	buf.Reset()
	if err := runStatsProm(&buf, &RunStats{Steps: 10}, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "buckwild_num_") || strings.Contains(buf.String(), "buckwild_rounding_bias") {
		t.Error("health metrics emitted without NumHealth")
	}
}

// TestPromHistogramCumulativeMonotone renders a multi-bucket histogram and
// walks its _bucket lines: le bounds must strictly increase and cumulative
// counts must be non-decreasing, ending at the +Inf count.
func TestPromHistogramCumulativeMonotone(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 0, 1, 2, 3, 5, 9, 17, 400, 70000} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	p := newPromWriter(&buf)
	p.histogram("h", "test histogram", h.Snapshot())
	if p.err != nil {
		t.Fatal(p.err)
	}
	lines := strings.Split(buf.String(), "\n")
	prevLe, prevCum := -1.0, uint64(0)
	var sawInf bool
	var infCum, count uint64
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, `h_bucket{le="+Inf"}`):
			sawInf = true
			fmt.Sscanf(line, `h_bucket{le="+Inf"} %d`, &infCum)
			if infCum < prevCum {
				t.Errorf("+Inf count %d below last bucket %d", infCum, prevCum)
			}
		case strings.HasPrefix(line, "h_bucket{le="):
			var le float64
			var cum uint64
			if _, err := fmt.Sscanf(line, `h_bucket{le="%g"} %d`, &le, &cum); err != nil {
				t.Fatalf("unparseable bucket line %q: %v", line, err)
			}
			if le <= prevLe {
				t.Errorf("le bounds not increasing: %g after %g", le, prevLe)
			}
			if cum < prevCum {
				t.Errorf("cumulative count decreased: %d after %d", cum, prevCum)
			}
			prevLe, prevCum = le, cum
		case strings.HasPrefix(line, "h_count "):
			fmt.Sscanf(line, "h_count %d", &count)
		}
	}
	if !sawInf {
		t.Fatal("no +Inf bucket emitted")
	}
	if count != 10 || infCum != count {
		t.Errorf("count %d, +Inf %d, want both 10", count, infCum)
	}
}

// TestLiveMetricsHealth checks that the live health gauges appear only
// after an epoch carried health, and the divergence gauges after one
// carried a divergence.
func TestLiveMetricsHealth(t *testing.T) {
	m := &LiveMetrics{}
	sf := &Surface{Live: m}
	var buf bytes.Buffer
	if err := sf.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "buckwild_live_saturations_total") {
		t.Error("live health gauges emitted before any epoch carried health")
	}
	if !strings.Contains(out, "buckwild_diverged 0") {
		t.Error("buckwild_diverged should always be scrapeable")
	}
	if strings.Contains(out, "buckwild_diverged_epoch") {
		t.Error("diverged_epoch emitted before divergence")
	}

	var hooks Hooks = m
	hooks.OnEpoch(EpochInfo{Epoch: 1, Health: &HealthInfo{ModelWrites: 100, Saturations: 12, Underflows: 3, BiasSamples: 8, BiasSumQuanta: 2, WeightsAtBounds: 5}})
	hooks.OnEpoch(EpochInfo{Epoch: 2, Divergence: &DivergenceInfo{Epoch: 2, Reason: "test"}})
	buf.Reset()
	if err := sf.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{
		"buckwild_live_saturations_total 12",
		"buckwild_live_underflows_total 3",
		"buckwild_live_rounding_bias_mean_quanta 0.25",
		"buckwild_live_weights_at_bounds 5",
		"buckwild_diverged 1",
		"buckwild_diverged_epoch 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q\n%s", want, out)
		}
	}
}
