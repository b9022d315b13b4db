package obs

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// This file holds the flight recorder: an always-on, bounded, lock-free
// ring of the run's most recent structured events (promotions, retries,
// faults, watchdog trips, slow requests, epoch/round completions). Its
// feed is the log stream: LogHandler captures every Info-or-worse record,
// so each event is one slog call carrying an "event" attribute. It is
// the post-mortem half of the observability stack — cheap enough to leave
// armed in production, and dumped as JSON when something goes wrong
// (divergence, supervisor exhaustion, SIGQUIT) or on demand via a
// Surface's GET /debug/flight.
//
// The ring is lock-free on the record path: one atomic fetch-add claims a
// slot, one atomic pointer store publishes the event. Readers snapshot by
// loading every slot pointer; a reader racing a writer sees either the
// old or the new event, never a torn one. A nil *FlightRecorder is fully
// inert, the package's established zero-cost convention.

// FlightEvent is one recorded event. Events are immutable once recorded.
type FlightEvent struct {
	// Seq is the global record sequence number (0-based); the snapshot
	// orders by it, so gaps reveal events lost to ring wrap.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock record time.
	Time time.Time `json:"time"`
	// Component names the subsystem that logged the event ("run",
	// "cluster", "serve", "bundle"; "log" for an unscoped logger).
	Component string `json:"component"`
	// Kind classifies the event ("retry", "checkpoint", "promotion",
	// "slow-request", "drain", "epoch", ...; "log" for a record with no
	// event attribute).
	Kind string `json:"kind"`
	// Message is the human-readable one-liner.
	Message string `json:"message,omitempty"`
	// Fields carries small structured annotations.
	Fields map[string]string `json:"fields,omitempty"`
}

// DefaultFlightCapacity is the ring size NewFlightRecorder uses for
// capacity <= 0: enough to hold the final minutes of a misbehaving run
// without ever mattering for memory.
const DefaultFlightCapacity = 512

// FlightRecorder records FlightEvents into a bounded lock-free ring;
// once full, the oldest events are overwritten. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops).
type FlightRecorder struct {
	slots []atomic.Pointer[FlightEvent]
	next  atomic.Uint64 // total events recorded, including overwritten
}

// NewFlightRecorder returns a recorder keeping the most recent capacity
// events (<= 0 selects DefaultFlightCapacity).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{slots: make([]atomic.Pointer[FlightEvent], capacity)}
}

// Record appends one event. fields may be nil; the recorder keeps the
// map as given, so callers must not mutate it afterwards. Subsystems do
// not call it: they log, and LogHandler records.
func (r *FlightRecorder) Record(component, kind, message string, fields map[string]string) {
	if r == nil {
		return
	}
	ev := &FlightEvent{
		Time: time.Now(), Component: component, Kind: kind,
		Message: message, Fields: fields,
	}
	ev.Seq = r.next.Add(1) - 1
	r.slots[ev.Seq%uint64(len(r.slots))].Store(ev)
}

// EventCount returns the total number of events recorded so far,
// including any the ring has overwritten.
func (r *FlightRecorder) EventCount() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// FlightSnapshot is the exportable content of a FlightRecorder.
type FlightSnapshot struct {
	// Taken is when the snapshot was captured.
	Taken time.Time `json:"taken"`
	// Recorded is the total events recorded; Dropped of them were
	// overwritten after the ring filled.
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped,omitempty"`
	// Events are the retained events, oldest first.
	Events []FlightEvent `json:"events"`
}

// Snapshot copies the recorder's current contents, oldest event first.
// It may be taken while events are still being recorded; each retained
// slot is read atomically.
func (r *FlightRecorder) Snapshot() FlightSnapshot {
	snap := FlightSnapshot{Taken: time.Now()}
	if r == nil {
		return snap
	}
	snap.Recorded = r.next.Load()
	events := make([]FlightEvent, 0, len(r.slots))
	for i := range r.slots {
		if ev := r.slots[i].Load(); ev != nil {
			events = append(events, *ev)
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	snap.Events = events
	if n := uint64(len(events)); snap.Recorded > n {
		snap.Dropped = snap.Recorded - n
	}
	return snap
}

// WriteJSON dumps the recorder's snapshot as indented JSON.
func (r *FlightRecorder) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// DumpFile writes the snapshot to path, creating or truncating it. It
// is the post-mortem exit path: call it when a run dies (divergence,
// supervisor exhaustion) or on SIGQUIT.
func (r *FlightRecorder) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LogHandler returns a slog.Handler that forwards every record next
// enables to next, and captures every record at Info or above into the
// recorder, whatever level next is set to. It is the ring's only feed:
// a subsystem logs each notable event once, and the component and event
// attributes name it (kind "log" when the record carries no event).
// next may be nil to only capture.
func (r *FlightRecorder) LogHandler(next slog.Handler) slog.Handler {
	return &flightLogHandler{rec: r, next: next}
}

type flightLogHandler struct {
	rec   *FlightRecorder
	next  slog.Handler
	attrs []slog.Attr
}

func (h *flightLogHandler) Enabled(ctx context.Context, level slog.Level) bool {
	if level >= slog.LevelInfo {
		return true
	}
	return h.next != nil && h.next.Enabled(ctx, level)
}

func (h *flightLogHandler) Handle(ctx context.Context, rec slog.Record) error {
	var err error
	if h.next != nil && h.next.Enabled(ctx, rec.Level) {
		err = h.next.Handle(ctx, rec.Clone())
	}
	if rec.Level < slog.LevelInfo {
		return err
	}
	component, kind := "log", "log"
	fields := make(map[string]string, rec.NumAttrs()+len(h.attrs)+1)
	add := func(a slog.Attr) {
		switch a.Key {
		case "component":
			component = a.Value.String()
		case "event":
			kind = a.Value.String()
		default:
			fields[a.Key] = a.Value.String()
		}
	}
	for _, a := range h.attrs {
		add(a)
	}
	rec.Attrs(func(a slog.Attr) bool { add(a); return true })
	fields["level"] = rec.Level.String()
	h.rec.Record(component, kind, rec.Message, fields)
	return err
}

func (h *flightLogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	if h.next != nil {
		nh.next = h.next.WithAttrs(attrs)
	}
	nh.attrs = append(append([]slog.Attr(nil), h.attrs...), attrs...)
	return &nh
}

func (h *flightLogHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	nh := *h
	if h.next != nil {
		nh.next = h.next.WithGroup(name)
	}
	return &nh
}
