package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"buckwild/internal/obs"
)

// syncBuffer lets the slog handler write from server goroutines while
// the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// ringLogger logs into rec, scoped to the serve component, as the
// facade and the commands wire a server's logger.
func ringLogger(rec *obs.FlightRecorder, next slog.Handler) *slog.Logger {
	return obs.Component(slog.New(rec.LogHandler(next)), "serve")
}

func TestDebugFlightEndpoint(t *testing.T) {
	rec := obs.NewFlightRecorder(32)
	s, hs := newTestServer(t, Config{Logger: ringLogger(rec, nil), Surface: &obs.Surface{Flight: rec}})
	if _, err := s.Promote(newLin(2, 1), 5, 0.25); err != nil {
		t.Fatal(err)
	}

	r, err := http.Get(hs.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/flight = %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	var snap obs.FlightSnapshot
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	promotions := 0
	for _, ev := range snap.Events {
		if ev.Component == "serve" && ev.Kind == "promotion" {
			promotions++
			if ev.Fields["epoch"] != "5" {
				t.Errorf("promotion event fields = %v", ev.Fields)
			}
		}
	}
	if promotions == 0 {
		t.Errorf("no promotion event in flight dump: %+v", snap.Events)
	}
}

func TestDebugFlightWithoutRecorder(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	r, err := http.Get(hs.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/flight without recorder = %d, want 404", r.StatusCode)
	}
}

func TestSlowRequestLogging(t *testing.T) {
	var logs syncBuffer
	rec := obs.NewFlightRecorder(32)
	s, hs := newTestServer(t, Config{
		Logger:      ringLogger(rec, slog.NewTextHandler(&logs, nil)),
		Surface:     &obs.Surface{Flight: rec},
		SlowRequest: time.Nanosecond, // every completed request is an offender
	})
	if _, err := s.Promote(newLin(2, 1), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if code, pr := post(t, hs.URL, `{"x":[1,1]}`); code != http.StatusOK {
		t.Fatalf("predict = %d (%+v)", code, pr)
	}

	if out := logs.String(); !strings.Contains(out, "slow request") {
		t.Errorf("no slow-request log line:\n%s", out)
	}
	slow := 0
	for _, ev := range rec.Snapshot().Events {
		if ev.Kind == "slow-request" {
			slow++
			if ev.Fields["status"] != "200" {
				t.Errorf("slow-request fields = %v", ev.Fields)
			}
		}
	}
	if slow != 1 {
		t.Errorf("flight ring holds %d slow-request events, want 1", slow)
	}
}

func TestRequestSpansTagged(t *testing.T) {
	tr := obs.NewTracer(0)
	s, hs := newTestServer(t, Config{Tracer: tr})
	if _, err := s.Promote(newLin(2, 2), 3, 0.1); err != nil {
		t.Fatal(err)
	}
	if code, _ := post(t, hs.URL, `{"x":[1,1]}`); code != http.StatusOK {
		t.Fatalf("predict = %d", code)
	}

	snap := tr.Snapshot()
	want := map[string]bool{"queue-wait": false, "predict": false, "request": false}
	for _, sp := range snap.Spans {
		if _, ok := want[sp.Name]; !ok || sp.FlowID != 0 {
			continue
		}
		if sp.Args["model_epoch"] != "3" || sp.Args["promotion"] != "1" {
			t.Errorf("%s span args = %v, want model_epoch=3 promotion=1", sp.Name, sp.Args)
			continue
		}
		want[sp.Name] = true
	}
	for name, ok := range want {
		if !ok {
			t.Errorf("no tagged %q span recorded", name)
		}
	}
	if snap.Tracks[900] == "" || snap.Tracks[901] == "" {
		t.Errorf("serve tracks unnamed: %v", snap.Tracks)
	}
}

// TestServeEventsLoggedOnce: each promotion, refusal, gate and drain
// transition is one log record that lands in the ring once, and a
// refused promotion is a warning the operator's log shows.
func TestServeEventsLoggedOnce(t *testing.T) {
	var logs syncBuffer
	rec := obs.NewFlightRecorder(32)
	s, err := New(Config{Logger: ringLogger(rec, slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn}))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Promote(newLin(2, 1), 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Promote(newLin(2, 1), 2, math.NaN()); err == nil {
		t.Fatal("promoted a model with a NaN loss")
	}
	s.RefusePromotions("diverged")
	if _, err := s.Promote(newLin(2, 1), 3, 0.4); err == nil {
		t.Fatal("promoted through a closed gate")
	}
	if err := s.Drain(nil); err != nil {
		t.Fatal(err)
	}

	var kinds []string
	for _, ev := range rec.Snapshot().Events {
		if ev.Component != "serve" {
			t.Errorf("event logged without the serve component: %+v", ev)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := "promotion promotion-refused promotion-gate promotion-refused drain drain"
	if got := strings.Join(kinds, " "); got != want {
		t.Errorf("ring kinds = %s, want %s", got, want)
	}
	out := logs.String()
	if n := strings.Count(out, "level=WARN msg=\"promotion refused\""); n != 2 {
		t.Errorf("log shows %d refused promotions at Warn, want 2:\n%s", n, out)
	}
	if !strings.Contains(out, "reason=\"non-finite loss NaN\" epoch=2") || !strings.Contains(out, "reason=diverged epoch=3") {
		t.Errorf("refusal records lack their reason and epoch:\n%s", out)
	}
}
