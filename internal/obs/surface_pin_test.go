package obs

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDebugSurfacePinned pins, by sha256, what every debug sink renders
// from one fixed set of sensors, for the sources each command attaches:
// "train" is buckwild -http on a 3-node cluster (flight, tracer, series,
// live metrics, cluster counters, flags), "serve" is buckwild serve
// (flight, series, live metrics, serving counters, flags). Per command it
// digests the /metrics body, the first /debug/dash/events "snapshot"
// event, and an on-demand /debug/bundle: every entry name in archive
// order plus each JSON entry's bytes. Wall-clock values are scrubbed
// first: the event's and flight events' times, the flight snapshot's
// capture time, series seconds and steps/s, and the manifest's time,
// host and size fields. The digests were captured before the sinks were
// rebuilt on one surface; pinMux (surface_seam_test.go) is the only code
// that knows how the sinks are wired.
func TestDebugSurfacePinned(t *testing.T) {
	want := map[string]string{
		"train/metrics": "d969d9ae92663d0107717678cf5535517c9f93ba69c562ea8f0f4571575c4857",
		"train/dash":    "70cc34a000856e1581a72060df357b61926ee698b9b99d60927db75a3c29174e",
		"train/bundle":  "ff29b84ce0d3ba0aa09cd04a970f2ca32c1248aa1eb6a1188519cd16c9b03e46",
		"serve/metrics": "5ac5ae8e3e48c38da118ae3099d0d21d3c9f49209c69b709ec4119cd8af705d1",
		"serve/dash":    "b2614e71f3abb5502008efe8f1b83bb892c4dca88958c7b78b3dd6ed829467d8",
		"serve/bundle":  "801f348a67ccafc8b672952ccc654517112ebf12677a06a7fc2cf39759b5c782",
	}
	for _, kind := range []string{"train", "serve"} {
		h := pinMux(t, pinnedSensors(kind))
		got := map[string][]byte{
			"metrics": scrubProm(pinGet(t, h, "/metrics", "text/plain; version=0.0.4; charset=utf-8")),
			"dash":    scrubJSON(pinFirstEvent(t, h)),
			"bundle":  pinBundleCanon(t, pinGet(t, h, "/debug/bundle", "application/gzip")),
		}
		for _, part := range []string{"metrics", "dash", "bundle"} {
			key := kind + "/" + part
			sum := sha256.Sum256(got[part])
			if d := hex.EncodeToString(sum[:]); d != want[key] {
				t.Errorf("%s digest %s, want %s; canonical bytes:\n%s", key, d, want[key], got[part])
			}
		}
	}
}

// pinSensors is one process's sensors, fed with a fixed sequence.
type pinSensors struct {
	flight  *FlightRecorder
	tracer  *Tracer
	series  *Series
	live    *LiveMetrics
	cluster *ClusterMetrics
	serve   *ServeMetrics
	flags   map[string]string
}

func pinnedSensors(kind string) pinSensors {
	sn := pinSensors{flight: NewFlightRecorder(16), series: NewSeries(4), live: &LiveMetrics{}}
	sn.flight.Record("run", "epoch", "epoch 1 done", map[string]string{"loss": "0.5"})
	sn.flight.Record("run", "retry", "retrying", nil)

	sn.series.ObserveSample(0, 0.25)
	sn.series.ObserveSample(3, 0.5)
	sn.series.HealthTick(7, 3, 40, -2)
	sn.series.EpochTick(1, 0.5, 100, 0)
	sn.series.ObserveSample(17, 0.125)
	sn.series.EpochTick(2, 0.375, 220, 1)

	m := sn.live
	m.OnEpoch(EpochInfo{Epoch: 1, Loss: 0.5, Steps: 100})
	for _, s := range []uint64{0, 3, 17, 1} {
		m.OnStep(StepInfo{Staleness: s})
	}
	m.OnWorker(WorkerInfo{Worker: 0, Epoch: 1, Steps: 50})
	m.OnWorker(WorkerInfo{Worker: 1, Epoch: 1, Steps: 50})
	m.OnCheckpoint(CheckpointInfo{Epoch: 1, Bytes: 4096})
	m.OnRetry(RetryInfo{Attempt: 1, ResumeEpoch: 1})
	m.OnEpoch(EpochInfo{
		Epoch: 2, Loss: 0.375, Steps: 220,
		Health:     &HealthInfo{Saturations: 7, Underflows: 3, BiasSamples: 40, BiasSumQuanta: -2, WeightsAtBounds: 2},
		Divergence: &DivergenceInfo{Epoch: 2, Reason: "saturation rate", Loss: 0.375},
	})
	rs := &RunStats{
		Steps: 220, MutexWaits: 1, BatchFlushes: 4, SampledSteps: 4,
		ModelWrites: map[string]uint64{"xorshift": 200, "biased": 20},
		NumHealth: &NumStats{
			Saturations: 7, Underflows: 3,
			SatBySite: map[string]uint64{"axpy": 5, "round": 2},
			Weights:   &WeightStats{Epoch: 2, Min: -1.5, Max: 2, Mean: 0.25, AtBounds: 2},
		},
	}
	for _, s := range []uint64{0, 3, 17, 1} {
		rs.Staleness.Observe(s)
	}
	m.SetFinal(rs, &SupervisorStats{Attempts: 2, Retries: 1, Checkpoints: 2, CheckpointBytes: 8192, Resumes: 1, FinalThreads: 2})

	sn.flags = map[string]string{"sig": "D8M8", "threads": "2", "bundle-dir": "."}
	switch kind {
	case "train":
		sn.tracer = NewTracer(8)
		sn.tracer.Begin("core", "epoch", 0).End()
		sn.cluster = &ClusterMetrics{}
		sn.cluster.Reset(3)
		for i, s := range []uint64{0, 1, 1, 2, 5, 0, 3} {
			sn.cluster.ObserveUpdate(i%3, s)
			sn.cluster.AddWireBytes(i%3, uint64(100*(i+1)))
		}
	case "serve":
		sn.serve = &ServeMetrics{}
		sn.serve.Request(1, 40)
		sn.serve.Request(4, 900)
		sn.serve.Rejected()
		sn.serve.Unavailable()
		sn.serve.BadRequest()
		sn.serve.DecodeFallback()
		sn.serve.Batch(1)
		sn.serve.Batch(4)
		sn.serve.InFlight(1)
		sn.serve.Promoted(2, math.Float64bits(0.375))
		sn.serve.PromotionRefused()
	}
	return sn
}

// pinRecorder is a ResponseRecorder that the test goroutine may read
// while a streaming handler writes on another.
type pinRecorder struct {
	mu     sync.Mutex
	header http.Header
	code   int
	body   bytes.Buffer
}

func newPinRecorder() *pinRecorder { return &pinRecorder{header: http.Header{}, code: http.StatusOK} }

func (r *pinRecorder) Header() http.Header { return r.header }
func (r *pinRecorder) Flush()              {}
func (r *pinRecorder) WriteHeader(c int) {
	r.mu.Lock()
	r.code = c
	r.mu.Unlock()
}
func (r *pinRecorder) Write(b []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.Write(b)
}
func (r *pinRecorder) bytes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.body.Bytes()...)
}

func pinGet(t *testing.T, h http.Handler, path, contentType string) []byte {
	t.Helper()
	rr := newPinRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	if rr.code != http.StatusOK || rr.header.Get("Content-Type") != contentType {
		t.Fatalf("GET %s = %d %q, want 200 %q", path, rr.code, rr.header.Get("Content-Type"), contentType)
	}
	return rr.bytes()
}

// pinFirstEvent returns the data line of the first SSE event.
func pinFirstEvent(t *testing.T, h http.Handler) []byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	rr := newPinRecorder()
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/dash/events", nil).WithContext(ctx))
		close(done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !bytes.Contains(rr.bytes(), []byte("\n\n")) {
		if time.Now().After(deadline) {
			t.Fatal("no SSE event arrived")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if ct := rr.header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	ev := string(rr.bytes())
	ev = ev[:strings.Index(ev, "\n\n")]
	const head = "event: snapshot\ndata: "
	if !strings.HasPrefix(ev, head) {
		t.Fatalf("SSE framing: %q", ev)
	}
	return []byte(strings.TrimPrefix(ev, head))
}

var (
	promStepsPerSec = regexp.MustCompile(`(?m)^(buckwild_window_steps_per_sec) \S+$`)
	jsonTimes       = regexp.MustCompile(`"(time|taken)":(\s*)"[^"]*"`)
	jsonSeconds     = regexp.MustCompile(`"(start_seconds|end_seconds|steps_per_sec)":(\s*)[-+0-9.eE]+`)
)

func scrubProm(b []byte) []byte { return promStepsPerSec.ReplaceAll(b, []byte("$1 0")) }

func scrubJSON(b []byte) []byte {
	b = jsonTimes.ReplaceAll(b, []byte(`"$1":$2"0001-01-01T00:00:00Z"`))
	return jsonSeconds.ReplaceAll(b, []byte(`"$1":${2}0`))
}

// pinBundleCanon lists a bundle's entries in archive order, each JSON
// entry followed by its scrubbed bytes; the manifest is re-marshaled
// without its time, host and size fields.
func pinBundleCanon(t *testing.T, bundle []byte) []byte {
	t.Helper()
	if _, err := ReadBundle(bytes.NewReader(bundle)); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)
	var out bytes.Buffer
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString("== " + hdr.Name + "\n")
		switch {
		case hdr.Name == "manifest.json":
			var m BundleManifest
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			m.Time, m.Go, m.OS, m.Arch, m.NumCPU, m.PID, m.Hostname = time.Time{}, "", "", "", 0, 0, ""
			for i := range m.Files {
				m.Files[i].Bytes = 0
			}
			for i := range m.Profiles {
				m.Profiles[i].Bytes, m.Profiles[i].Time = 0, time.Time{}
			}
			if data, err = json.MarshalIndent(m, "", "  "); err != nil {
				t.Fatal(err)
			}
			out.Write(data)
			out.WriteByte('\n')
		case strings.HasSuffix(hdr.Name, ".json"):
			out.Write(scrubJSON(data))
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}
