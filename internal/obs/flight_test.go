package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestFlightRecorderRing(t *testing.T) {
	rec := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		rec.Record("test", "tick", fmt.Sprintf("event %d", i), nil)
	}
	snap := rec.Snapshot()
	if snap.Recorded != 10 {
		t.Errorf("recorded = %d, want 10", snap.Recorded)
	}
	if len(snap.Events) != 4 {
		t.Fatalf("retained %d events, want 4", len(snap.Events))
	}
	if snap.Dropped != 6 {
		t.Errorf("dropped = %d, want 6", snap.Dropped)
	}
	// The ring keeps the newest events, in sequence order.
	for i, ev := range snap.Events {
		if want := uint64(6 + i); ev.Seq != want {
			t.Errorf("events[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round FlightSnapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("dump does not round-trip: %v", err)
	}
	if len(round.Events) != 4 || round.Events[3].Message != "event 9" {
		t.Errorf("round-tripped dump = %+v", round)
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var rec *FlightRecorder
	rec.Record("test", "tick", "ignored", nil) // must not panic
	if rec.EventCount() != 0 {
		t.Error("nil recorder counted an event")
	}
	if snap := rec.Snapshot(); len(snap.Events) != 0 {
		t.Errorf("nil recorder snapshot = %+v", snap)
	}
}

// TestFlightRecorderConcurrent writes from many goroutines while
// snapshots run; the race detector is the assertion, plus every
// retained event must be intact (no torn slots).
func TestFlightRecorderConcurrent(t *testing.T) {
	rec := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				rec.Record("test", "tick", "concurrent", map[string]string{"g": fmt.Sprint(g)})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = rec.Snapshot()
		}
	}()
	wg.Wait()
	snap := rec.Snapshot()
	if snap.Recorded != 8*300 {
		t.Errorf("recorded = %d, want %d", snap.Recorded, 8*300)
	}
	if len(snap.Events) != 64 {
		t.Errorf("retained = %d, want 64", len(snap.Events))
	}
	for i, ev := range snap.Events {
		if ev.Kind != "tick" || ev.Fields["g"] == "" {
			t.Fatalf("torn event at %d: %+v", i, ev)
		}
		if i > 0 && ev.Seq <= snap.Events[i-1].Seq {
			t.Fatalf("events out of order at %d: %d after %d", i, ev.Seq, snap.Events[i-1].Seq)
		}
	}
}

func TestFlightLogHandlerTee(t *testing.T) {
	rec := NewFlightRecorder(8)
	var buf bytes.Buffer
	base, err := NewLogger(&buf, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	logger := Component(slog.New(rec.LogHandler(base.Handler())), "run")
	logger.Debug("below the ring")
	logger.Info("checkpoint saved", slog.String("event", "checkpoint"), slog.Int("epoch", 3))
	logger.Warn("worth remembering", slog.Int("attempt", 2))

	if out := buf.String(); strings.Contains(out, "below the ring") || strings.Contains(out, "checkpoint saved") ||
		!strings.Contains(out, "worth remembering") {
		t.Errorf("the wrapped handler's own level no longer filters what it prints:\n%s", out)
	}
	snap := rec.Snapshot()
	if len(snap.Events) != 2 {
		t.Fatalf("ring holds %d events, want the Info event and the warning: %+v", len(snap.Events), snap.Events)
	}
	ev := snap.Events[0]
	if ev.Kind != "checkpoint" || ev.Component != "run" || ev.Message != "checkpoint saved" {
		t.Errorf("event = %+v, want its event attribute as the kind", ev)
	}
	if _, ok := ev.Fields["event"]; ok || ev.Fields["epoch"] != "3" || ev.Fields["level"] != "INFO" {
		t.Errorf("event fields = %v", ev.Fields)
	}
	ev = snap.Events[1]
	if ev.Kind != "log" || ev.Component != "run" || ev.Message != "worth remembering" {
		t.Errorf("teed record = %+v", ev)
	}
	if ev.Fields["attempt"] != "2" || ev.Fields["level"] != "WARN" {
		t.Errorf("teed fields = %v", ev.Fields)
	}
}

func TestNewLoggerAndLevels(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hidden")
	l.Warn("visible")
	out := buf.String()
	if bytes.Contains([]byte(out), []byte("hidden")) || !bytes.Contains([]byte(out), []byte("visible")) {
		t.Errorf("level filter broken:\n%s", out)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("json format produced non-JSON: %v\n%s", err, out)
	}

	if _, err := NewLogger(&buf, "yaml", "info"); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Error("unknown level accepted")
	}
	if lv, err := ParseLogLevel("WARNING"); err != nil || lv != slog.LevelWarn {
		t.Errorf("ParseLogLevel(WARNING) = %v, %v", lv, err)
	}
	if Component(nil, "run") != nil {
		t.Error("Component(nil) must stay nil")
	}
}
