package obs

import (
	"io"
	"net/http"
)

// This file is the process's one debug surface: each sensor a command
// attaches is named once, in a Surface, and every sink reads it from
// there — the /metrics exposition, the live dashboard's SSE feed, the
// flight dump and the debug bundle's sections. Mount is the only place
// the debug routes are registered; the training command's -http endpoint
// (ServeDebug) and the serving daemon's port both call it.

// Surface holds one process's sensors. Every field may be nil: an absent
// sensor contributes nothing to /metrics, the dashboard or a bundle. Set
// the fields before the surface is mounted or handed to NewBundler; the
// sinks read them without synchronisation.
type Surface struct {
	// Flight is the post-mortem event ring, served at /debug/flight and
	// bundled as flight.json.
	Flight *FlightRecorder
	// Tracer's span window is bundled as trace.json.gz.
	Tracer *Tracer
	// Series feeds the window gauges, the dashboard charts and a bundle's
	// series.json.
	Series *Series
	// Profiler's newest CPU profile is bundled as profiles/cpu.pprof.
	Profiler *Profiler
	// Live is the training run's hook-fed gauges (install it as the run's
	// Hooks too); its SetFinal snapshot closes the exposition.
	Live *LiveMetrics
	// Cluster is the per-node counters of a simulated cluster run,
	// bundled as stats/cluster.json.
	Cluster *ClusterMetrics
	// Serve is the serving daemon's counters, bundled as
	// stats/serve.json; serve.New installs its own.
	Serve *ServeMetrics
	// Flags is the process's resolved configuration, bundled as
	// config.json.
	Flags map[string]string
	// Bundle writes debug bundles of this surface (see NewBundler) and
	// serves one on demand at /debug/bundle.
	Bundle *Bundler
}

// WriteProm renders the /metrics body in the Prometheus text format:
// the serving counters, the live training gauges, the newest series
// window, the cluster's per-node counters, then the finished run's
// snapshot once Live.SetFinal has been called.
func (s *Surface) WriteProm(w io.Writer) error {
	p := newPromWriter(w)
	if s.Serve != nil {
		s.Serve.writeProm(p)
	}
	if s.Live != nil {
		s.Live.writeProm(p)
	}
	if win := s.Series.Snapshot().Final(); win != nil {
		p.metric("buckwild_window_steps_per_sec", "gauge", "Throughput of the newest time-series window.", win.StepsPerSec)
		p.metric("buckwild_window_loss", "gauge", "Loss of the newest time-series window.", win.Loss)
		p.metric("buckwild_window_grad_abs_mean", "gauge", "Mean sampled gradient magnitude of the newest window.", win.GradAbsMean())
		p.metric("buckwild_window_mutex_waits", "gauge", "Contended lock acquisitions in the newest window.", float64(win.MutexWaits))
		p.histogram("buckwild_window_staleness", "Staleness sub-histogram of the newest window.", win.Staleness)
	}
	s.Cluster.writeProm(p)
	if s.Live != nil {
		if f := s.Live.final.Load(); f != nil {
			writeRunStatsProm(p, f.run, f.sup)
		}
	}
	return p.err
}

// Mount registers the surface's routes on mux: /metrics, /debug/flight,
// /debug/dash with its SSE feed /debug/dash/events, and /debug/bundle.
// Routes whose sensor is nil answer 404.
func (s *Surface) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteProm(w)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		if s.Flight == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		s.Flight.WriteJSON(w)
	})
	mux.HandleFunc("/debug/dash", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, dashHTML)
	})
	mux.HandleFunc("/debug/dash/events", s.dashEvents)
	mux.HandleFunc("/debug/bundle", s.Bundle.serveHTTP)
}
