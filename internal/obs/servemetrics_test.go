package obs

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestServeMetricsProm(t *testing.T) {
	m := &ServeMetrics{}
	m.Request(3, 120)
	m.Request(1, 480)
	m.Rejected()
	m.Unavailable()
	m.Unavailable()
	m.BadRequest()
	m.DecodeFallback()
	m.DecodeFallback()
	m.DecodeFallback()
	m.Batch(4)
	m.InFlight(1)
	m.Promoted(7, 0x3f800000)
	m.PromotionRefused()
	m.SetDraining(true)

	var buf bytes.Buffer
	if err := (&Surface{Serve: m}).WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE buckwild_serve_requests_total counter",
		"buckwild_serve_requests_total 2",
		"buckwild_serve_examples_total 4",
		"buckwild_serve_rejected_total 1",
		"buckwild_serve_unavailable_total 2",
		"buckwild_serve_bad_requests_total 1",
		"# TYPE buckwild_serve_decode_fallback_total counter",
		"buckwild_serve_decode_fallback_total 3",
		"# TYPE buckwild_serve_in_flight gauge",
		"buckwild_serve_in_flight 1",
		"buckwild_serve_latency_us_count 2",
		"buckwild_serve_latency_us_sum 600",
		"buckwild_serve_batch_size_count 1",
		"buckwild_serve_promotions_total 1",
		"buckwild_serve_promotions_refused_total 1",
		"buckwild_serve_model_epoch 7",
		"buckwild_serve_draining 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition is missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	sn := m.Snapshot()
	if sn.Requests != 2 || sn.Examples != 4 || sn.ModelEpoch != 7 || sn.InFlight != 1 || sn.DecodeFallbacks != 3 {
		t.Errorf("snapshot = %+v", sn)
	}
}

func TestServeMetricsInFlightClamp(t *testing.T) {
	m := &ServeMetrics{}
	// A stray decrement on an empty gauge must clamp at zero, not go
	// negative and poison dashboards.
	m.InFlight(-1)
	if got := m.Snapshot().InFlight; got != 0 {
		t.Fatalf("in-flight after stray decrement = %d, want 0", got)
	}
	m.InFlight(1)
	m.InFlight(1)
	m.InFlight(-1)
	m.InFlight(-1)
	m.InFlight(-1) // double-counted response
	if got := m.Snapshot().InFlight; got != 0 {
		t.Fatalf("in-flight after over-decrement = %d, want 0", got)
	}
	m.InFlight(1)
	if got := m.Snapshot().InFlight; got != 1 {
		t.Fatalf("in-flight after recovery = %d, want 1", got)
	}
}

// TestServeMetricsConcurrent hammers every mutator while snapshots and
// expositions run; the race detector is the assertion.
func TestServeMetricsConcurrent(t *testing.T) {
	m := &ServeMetrics{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.InFlight(1)
				m.Request(2, uint64(i))
				m.Batch(2)
				m.InFlight(-1)
				switch i % 4 {
				case 0:
					m.Rejected()
				case 1:
					m.Promoted(g*1000+i, uint64(i))
				case 2:
					m.PromotionRefused()
				case 3:
					m.BadRequest()
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = m.Snapshot()
			_ = (&Surface{Serve: m}).WriteProm(io.Discard)
		}
	}()
	wg.Wait()

	sn := m.Snapshot()
	if sn.Requests != 8*500 {
		t.Errorf("requests = %d, want %d", sn.Requests, 8*500)
	}
	if sn.Examples != 8*500*2 {
		t.Errorf("examples = %d, want %d", sn.Examples, 8*500*2)
	}
	if sn.InFlight != 0 {
		t.Errorf("in-flight = %d, want 0", sn.InFlight)
	}
}
