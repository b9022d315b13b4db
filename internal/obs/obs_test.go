package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 0, 1, 2, 3, 4, 7, 8, 1 << 40} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 9 {
		t.Errorf("count = %d, want 9", s.Count)
	}
	if s.Max != 1<<40 {
		t.Errorf("max = %d", s.Max)
	}
	want := map[uint64]uint64{0: 2, 1: 1, 2: 2, 4: 2, 8: 1, 1 << 40: 1}
	// 1<<40 lands in the open-ended top bucket.
	wantTop := bucketLo(histBuckets - 1)
	delete(want, 1<<40)
	want[wantTop] = 1
	got := map[uint64]uint64{}
	for _, b := range s.Buckets {
		got[b.Lo] = b.N
	}
	for lo, n := range want {
		if got[lo] != n {
			t.Errorf("bucket lo=%d: got %d, want %d (all: %v)", lo, got[lo], n, got)
		}
	}
	if mean := s.Mean(); mean <= 0 {
		t.Errorf("mean = %v", mean)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(uint64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 4000 {
		t.Errorf("count = %d, want 4000", s.Count)
	}
}

func TestHistSnapshotMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(0)
	a.Observe(5)
	b.Observe(5)
	b.Observe(100)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 4 || sa.Sum != 110 || sa.Max != 100 {
		t.Errorf("merged = %+v", sa)
	}
	for i := 1; i < len(sa.Buckets); i++ {
		if sa.Buckets[i-1].Lo >= sa.Buckets[i].Lo {
			t.Errorf("buckets out of order: %+v", sa.Buckets)
		}
	}
}

func TestRunStatsMerge(t *testing.T) {
	a := &RunStats{Steps: 10, MutexWaits: 1, ModelWrites: map[string]uint64{"biased": 10}}
	b := &RunStats{Steps: 5, BatchFlushes: 2, ModelWrites: map[string]uint64{"biased": 4, "unbiased-shared": 1}}
	a.Merge(b)
	if a.Steps != 15 || a.MutexWaits != 1 || a.BatchFlushes != 2 {
		t.Errorf("merged = %+v", a)
	}
	if a.ModelWrites["biased"] != 14 || a.ModelWrites["unbiased-shared"] != 1 {
		t.Errorf("writes = %v", a.ModelWrites)
	}
	// Merging into a stats with a nil map allocates one.
	c := &RunStats{}
	c.Merge(b)
	if c.ModelWrites["biased"] != 4 {
		t.Errorf("nil-map merge = %v", c.ModelWrites)
	}
}

func TestObserverSamplePeriod(t *testing.T) {
	var o *Observer
	if o.SamplePeriod() != DefaultStepSample {
		t.Error("nil observer should use the default period")
	}
	if (&Observer{StepSample: 7}).SamplePeriod() != 7 {
		t.Error("explicit period ignored")
	}
}

func TestWriteJSON(t *testing.T) {
	path := t.TempDir() + "/report.json"
	if err := WriteJSON(path, map[string]int{"steps": 3}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]int
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got["steps"] != 3 {
		t.Errorf("round trip = %v", got)
	}
}

// TestServeDebug checks the debug mux: /metrics reaches the passed
// handler, extra routes are mounted (nil ones skipped), pprof answers,
// and nothing else is served.
func TestServeDebug(t *testing.T) {
	body := func(text string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, text) })
	}
	s, err := ServeDebug("127.0.0.1:0", body("metrics-body"), map[string]http.Handler{
		"/debug/extra": body("extra-body"),
		"/debug/nil":   nil,
	})
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer s.Close()
	for _, c := range []struct {
		path string
		code int
		body string
	}{
		{"/metrics", http.StatusOK, "metrics-body"},
		{"/debug/extra", http.StatusOK, "extra-body"},
		{"/debug/pprof/", http.StatusOK, ""},
		{"/debug/obs", http.StatusNotFound, ""},
		{"/debug/nil", http.StatusNotFound, ""},
	} {
		resp, err := http.Get("http://" + s.Addr + c.path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.code || (c.body != "" && string(got) != c.body) {
			t.Errorf("GET %s = %d %q, want %d %q", c.path, resp.StatusCode, got, c.code, c.body)
		}
	}
}
