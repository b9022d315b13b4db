package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
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

// TestServeDebug checks the debug mux: the surface's routes are mounted
// (/metrics renders its sensors, a nil sensor's route answers 404), pprof
// answers, and nothing else is served. A client that dribbles half a
// request header is dropped once ReadHeaderTimeout passes, while a
// well-formed /metrics GET sent in the meantime still answers 200.
func TestServeDebug(t *testing.T) {
	rec := NewFlightRecorder(4)
	rec.Record("run", "epoch", "flight-body", nil)
	s, err := ServeDebug("127.0.0.1:0", &Surface{Flight: rec, Live: &LiveMetrics{}})
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer s.Close()
	for _, c := range []struct {
		path string
		code int
		body string
	}{
		{"/metrics", http.StatusOK, "buckwild_epochs_completed 0"},
		{"/debug/flight", http.StatusOK, "flight-body"},
		{"/debug/pprof/", http.StatusOK, ""},
		{"/debug/obs", http.StatusNotFound, ""},
		{"/debug/bundle", http.StatusNotFound, ""},
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
		if resp.StatusCode != c.code || !strings.Contains(string(got), c.body) {
			t.Errorf("GET %s = %d %q, want %d %q", c.path, resp.StatusCode, got, c.code, c.body)
		}
	}

	slow, err := net.Dial("tcp", s.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := slow.Write([]byte("GET /metrics HTTP/1.1\r\nHost: x\r\nUser-Ag")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics beside the slow client = %d, want 200", resp.StatusCode)
	}
	if err := slow.SetReadDeadline(start.Add(ReadHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(slow) // returns at the server's close, or at our deadline
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("slow client still connected %v after its first byte (read %q)", time.Since(start), reply)
	}
	if bytes.HasPrefix(reply, []byte("HTTP/1.1 200")) {
		t.Errorf("half a header was answered as a request: %q", reply)
	}
	if held := time.Since(start); held < ReadHeaderTimeout-time.Second {
		t.Errorf("connection dropped after %v, before the %v header timeout", held, ReadHeaderTimeout)
	}
}

// TestServeDebugTimeouts checks the debug endpoint carries both
// connection timeouts, and that the idle one outlasts the Go client's own
// idle-connection timeout.
func TestServeDebugTimeouts(t *testing.T) {
	s, err := ServeDebug("127.0.0.1:0", &Surface{})
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer s.Close()
	if s.srv.ReadHeaderTimeout != ReadHeaderTimeout || s.srv.IdleTimeout != IdleTimeout {
		t.Errorf("timeouts: read-header %v, idle %v", s.srv.ReadHeaderTimeout, s.srv.IdleTimeout)
	}
	if client := http.DefaultTransport.(*http.Transport).IdleConnTimeout; IdleTimeout <= client {
		t.Errorf("IdleTimeout %v does not outlast the client's %v", IdleTimeout, client)
	}
}
