package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDashServesPage(t *testing.T) {
	se := NewSeries(0)
	se.EpochTick(0, 0.5, 100, 0)
	mux := http.NewServeMux()
	(&Surface{Series: se}).Mount(mux)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/dash", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /debug/dash = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("page content-type = %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{"<html", "EventSource", "/events"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard page lacks %q", want)
		}
	}
}

func TestDashEventsFraming(t *testing.T) {
	se := NewSeries(0)
	se.EpochTick(0, 0.5, 100, 0)
	se.EpochTick(1, 0.25, 200, 0)
	cm := &ClusterMetrics{}
	cm.Reset(2)
	sf := &Surface{Series: se, Cluster: cm}

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/debug/dash/events", nil).WithContext(ctx)
	rr := &syncRecorder{rr: httptest.NewRecorder()}

	done := make(chan struct{})
	go func() { sf.dashEvents(rr, req); close(done) }()

	// An event is pushed immediately on connect; wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if strings.Contains(rr.body(), "\n\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no SSE event arrived")
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // client goes away; handler must return
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Events did not return after client context cancel")
	}

	if ct := rr.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content-type = %q", ct)
	}
	if cc := rr.Header().Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("SSE cache-control = %q", cc)
	}
	body := rr.body()
	if !strings.HasPrefix(body, "event: snapshot\ndata: ") {
		t.Fatalf("SSE framing wrong: %q", body[:min(len(body), 60)])
	}
	payload := strings.TrimPrefix(strings.SplitN(body, "\n\n", 2)[0], "event: snapshot\ndata: ")
	var snap struct {
		Series  *SeriesSnapshot `json:"series"`
		Cluster *ClusterStats   `json:"cluster"`
	}
	if err := json.Unmarshal([]byte(payload), &snap); err != nil {
		t.Fatalf("SSE payload is not JSON: %v\n%s", err, payload)
	}
	if snap.Series == nil || len(snap.Series.Windows) == 0 {
		t.Error("SSE payload lacks series windows")
	}
	if snap.Cluster == nil || snap.Cluster.Nodes != 2 {
		t.Errorf("SSE payload cluster = %+v", snap.Cluster)
	}
}

// syncRecorder makes a ResponseRecorder safe to poll from the test
// goroutine while the handler goroutine writes to it.
type syncRecorder struct {
	mu sync.Mutex
	rr *httptest.ResponseRecorder
}

func (s *syncRecorder) Header() http.Header { return s.rr.Header() }
func (s *syncRecorder) WriteHeader(c int)   { s.rr.WriteHeader(c) }
func (s *syncRecorder) Flush()              {}
func (s *syncRecorder) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rr.Write(b)
}
func (s *syncRecorder) body() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rr.Body.String()
}

// flushlessWriter hides ResponseRecorder's Flush (no embedding, so no
// method promotion) so the handler sees a non-streaming connection.
type flushlessWriter struct{ rr *httptest.ResponseRecorder }

func (f flushlessWriter) Header() http.Header         { return f.rr.Header() }
func (f flushlessWriter) Write(b []byte) (int, error) { return f.rr.Write(b) }
func (f flushlessWriter) WriteHeader(c int)           { f.rr.WriteHeader(c) }

func TestDashEventsRequiresFlusher(t *testing.T) {
	rr := httptest.NewRecorder()
	(&Surface{}).dashEvents(flushlessWriter{rr}, httptest.NewRequest("GET", "/debug/dash/events", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Errorf("flushless SSE request = %d, want 500", rr.Code)
	}
}

// TestNilDashHandlers checks a surface with no sensors: the dashboard
// page still renders (its sections stay hidden) and its first event
// carries only the time, while the flight and bundle routes answer 404.
func TestNilDashHandlers(t *testing.T) {
	mux := http.NewServeMux()
	sf := &Surface{}
	sf.Mount(mux)
	for path, want := range map[string]int{
		"/debug/dash":   http.StatusOK,
		"/debug/flight": http.StatusNotFound,
		"/debug/bundle": http.StatusNotFound,
	} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != want {
			t.Errorf("GET %s = %d, want %d", path, rr.Code, want)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	rr := &syncRecorder{rr: httptest.NewRecorder()}
	done := make(chan struct{})
	go func() {
		sf.dashEvents(rr, httptest.NewRequest("GET", "/debug/dash/events", nil).WithContext(ctx))
		close(done)
	}()
	for !strings.Contains(rr.body(), "\n\n") {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	var snap map[string]json.RawMessage
	payload := strings.TrimPrefix(strings.SplitN(rr.body(), "\n\n", 2)[0], "event: snapshot\ndata: ")
	if err := json.Unmarshal([]byte(payload), &snap); err != nil || len(snap) != 1 || snap["time"] == nil {
		t.Errorf("sensorless snapshot = %s (%v), want only a time", payload, err)
	}
}
