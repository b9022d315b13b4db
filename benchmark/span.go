package main

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Parent is the ID of
// the span that caused it (0 = none); IDs start at 1.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent,omitempty"`
	Layer  string            `json:"layer"`
	Name   string            `json:"name"`
	Start  time.Duration     `json:"start_ns"`
	Dur    time.Duration     `json:"dur_ns"`
	Args   map[string]string `json:"args,omitempty"`
}

// recorder is the harness's own span recorder: spans stay in memory and
// are written out when the benchmark ends. A nil *recorder records nothing,
// which is how the untraced run pays nothing for the call sites.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is a begun span; end records it.
type openSpan struct {
	r      *recorder
	id     int
	parent int
	layer  string
	name   string
	start  time.Time
}

// begin opens a span under parent (0 for a root) and returns its handle;
// handle.id is valid as a parent immediately.
func (r *recorder) begin(parent int, layer, name string) openSpan {
	if r == nil {
		return openSpan{}
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{})
	id := len(r.spans)
	r.mu.Unlock()
	return openSpan{r: r, id: id, parent: parent, layer: layer, name: name, start: time.Now()}
}

func (o openSpan) end() { o.endArgs(nil) }

func (o openSpan) endArgs(args map[string]string) {
	if o.r == nil {
		return
	}
	dur := time.Since(o.start)
	o.r.mu.Lock()
	o.r.spans[o.id-1] = span{ID: o.id, Parent: o.parent, Layer: o.layer, Name: o.name,
		Start: o.start.Sub(o.r.t0), Dur: dur, Args: args}
	o.r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a replayed
// call count, a span lifted from the program's own tracer).
func (r *recorder) add(parent int, layer, name string, start, dur time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: start, Dur: dur})
	return id
}

func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.t0)
}

// snapshot returns the finished spans (begun-but-unended slots are
// skipped).
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children (parallel
// work under one parent) are counted once, and a child reaching outside
// its parent only counts for the part inside.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		lo, hi := s.Start, s.Start+s.Dur
		var covered time.Duration
		cursor := lo
		for _, k := range kids {
			ks, ke := max(k.Start, cursor), min(k.Start+k.Dur, hi)
			if ke > ks {
				covered += ke - ks
				cursor = ke
			}
		}
		self[s.ID] = s.Dur - covered
	}
	return self
}

// layerSelfSeconds sums self time by layer.
func layerSelfSeconds(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID].Seconds()
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (chrome://tracing,
// ui.perfetto.dev). Each layer is its own track; the causing span's ID is
// in args.parent.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	tids := map[string]int{}
	var events []event
	for _, s := range spans {
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.Layer] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid, Args: map[string]string{"name": s.Layer}})
		}
		args := map[string]string{"id": strconv.Itoa(s.ID)}
		if s.Parent != 0 {
			args["parent"] = strconv.Itoa(s.Parent)
		}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, event{Name: s.Name, Cat: s.Layer, Ph: "X", PID: 1, TID: tid,
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.Dur.Nanoseconds()) / 1e3, Args: args})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
