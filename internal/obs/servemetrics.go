package obs

import "sync/atomic"

// ServeMetrics is the serving tier's counter set: every field is an
// atomic or a lock-free Histogram, so the daemon's request path records
// into it without taking a lock and a /metrics scrape never blocks a
// predict. One instance is shared by the HTTP front end (requests,
// rejections, latency), the batcher (batch sizes) and the promotion path
// (promotions, refusals, model epoch).
type ServeMetrics struct {
	// Request accounting. Requests counts HTTP predict requests;
	// Examples counts the individual examples inside them (a batched
	// request contributes its batch size).
	requests    atomic.Uint64
	examples    atomic.Uint64
	rejected    atomic.Uint64 // admission control: queue full -> 429
	unavailable atomic.Uint64 // no model yet, or draining -> 503
	badRequests atomic.Uint64 // malformed JSON / predict errors -> 400, oversized body -> 413
	inFlight    atomic.Int64
	// decodeFallbacks counts requests whose body was outside the fast
	// decoder's grammar and went through encoding/json.
	decodeFallbacks atomic.Uint64

	// Latency is measured request-in to response-written, in
	// microseconds (power-of-two buckets resolve the microsecond to
	// second range well).
	latencyUS Histogram
	// BatchSize records the number of examples the batcher handed to
	// each predict call.
	batchSize Histogram

	// Promotion accounting.
	promotions        atomic.Uint64
	promotionsRefused atomic.Uint64
	modelEpoch        atomic.Int64
	modelLossBits     atomic.Uint64

	draining atomic.Bool
}

// Request records one accepted predict request carrying n examples and
// its end-to-end latency in microseconds.
func (m *ServeMetrics) Request(n int, latencyUS uint64) {
	m.requests.Add(1)
	m.examples.Add(uint64(n))
	m.latencyUS.Observe(latencyUS)
}

// Rejected records one request turned away by admission control (429).
func (m *ServeMetrics) Rejected() { m.rejected.Add(1) }

// Unavailable records one request refused because no model is promoted
// yet or the server is draining (503).
func (m *ServeMetrics) Unavailable() { m.unavailable.Add(1) }

// BadRequest records one malformed request (400) or oversized body (413).
func (m *ServeMetrics) BadRequest() { m.badRequests.Add(1) }

// DecodeFallback records one request that took the encoding/json decode
// path: its body was outside the fast decoder's grammar.
func (m *ServeMetrics) DecodeFallback() { m.decodeFallbacks.Add(1) }

// Batch records one predict batch of n examples.
func (m *ServeMetrics) Batch(n int) { m.batchSize.Observe(uint64(n)) }

// InFlight adjusts the in-flight request gauge by d (+1 on admit, -1 on
// response). The gauge is clamped at zero: a stray extra decrement (a
// double-counted response, or a decrement racing a restart) must show up
// as a too-low gauge, never as a negative one that poisons dashboards.
func (m *ServeMetrics) InFlight(d int64) {
	for {
		cur := m.inFlight.Load()
		next := cur + d
		if next < 0 {
			next = 0
		}
		if m.inFlight.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Promoted records a successful model promotion at the given cumulative
// epoch with the given training loss.
func (m *ServeMetrics) Promoted(epoch int, lossBits uint64) {
	m.promotions.Add(1)
	m.modelEpoch.Store(int64(epoch))
	m.modelLossBits.Store(lossBits)
}

// PromotionRefused records a promotion attempt turned away by the
// divergence gate.
func (m *ServeMetrics) PromotionRefused() { m.promotionsRefused.Add(1) }

// SetDraining flips the draining gauge.
func (m *ServeMetrics) SetDraining(v bool) { m.draining.Store(v) }

// ServeStats is the exportable snapshot of a ServeMetrics: the form the
// dashboard feed, a bundle's stats/serve section and the serve command's
// exit summary read.
type ServeStats struct {
	Requests          uint64       `json:"requests"`
	Examples          uint64       `json:"examples"`
	Rejected          uint64       `json:"rejected"`
	Unavailable       uint64       `json:"unavailable"`
	BadRequests       uint64       `json:"bad_requests"`
	DecodeFallbacks   uint64       `json:"decode_fallbacks"`
	LatencyUS         HistSnapshot `json:"latency_us"`
	BatchSize         HistSnapshot `json:"batch_size"`
	Promotions        uint64       `json:"promotions"`
	PromotionsRefused uint64       `json:"promotions_refused"`
	ModelEpoch        int64        `json:"model_epoch"`
	InFlight          int64        `json:"in_flight,omitempty"`
}

// Snapshot returns the current counters in exportable form; a nil
// receiver returns nil.
func (m *ServeMetrics) Snapshot() *ServeStats {
	if m == nil {
		return nil
	}
	return &ServeStats{
		Requests:          m.requests.Load(),
		Examples:          m.examples.Load(),
		Rejected:          m.rejected.Load(),
		Unavailable:       m.unavailable.Load(),
		BadRequests:       m.badRequests.Load(),
		DecodeFallbacks:   m.decodeFallbacks.Load(),
		LatencyUS:         m.latencyUS.Snapshot(),
		BatchSize:         m.batchSize.Snapshot(),
		Promotions:        m.promotions.Load(),
		PromotionsRefused: m.promotionsRefused.Load(),
		ModelEpoch:        m.modelEpoch.Load(),
		InFlight:          m.inFlight.Load(),
	}
}

// writeProm renders the serving counters, the head of the daemon's
// /metrics body.
func (m *ServeMetrics) writeProm(p *promWriter) {
	p.metric("buckwild_serve_requests_total", "counter", "Predict requests accepted.", float64(m.requests.Load()))
	p.metric("buckwild_serve_examples_total", "counter", "Examples predicted (batched requests count each example).", float64(m.examples.Load()))
	p.metric("buckwild_serve_rejected_total", "counter", "Requests rejected by admission control (429).", float64(m.rejected.Load()))
	p.metric("buckwild_serve_unavailable_total", "counter", "Requests refused with no model or while draining (503).", float64(m.unavailable.Load()))
	p.metric("buckwild_serve_bad_requests_total", "counter", "Malformed (400) or oversized (413) predict requests.", float64(m.badRequests.Load()))
	p.metric("buckwild_serve_decode_fallback_total", "counter", "Requests decoded by encoding/json because the fast decoder declined them.", float64(m.decodeFallbacks.Load()))
	p.metric("buckwild_serve_in_flight", "gauge", "Requests currently being served.", float64(m.inFlight.Load()))
	p.histogram("buckwild_serve_latency_us", "Predict request latency, request-in to response-written, microseconds.", m.latencyUS.Snapshot())
	p.histogram("buckwild_serve_batch_size", "Examples per predict batch.", m.batchSize.Snapshot())
	p.metric("buckwild_serve_promotions_total", "counter", "Model snapshots promoted into serving.", float64(m.promotions.Load()))
	p.metric("buckwild_serve_promotions_refused_total", "counter", "Promotions refused by the divergence gate.", float64(m.promotionsRefused.Load()))
	p.metric("buckwild_serve_model_epoch", "gauge", "Cumulative training epoch of the serving model.", float64(m.modelEpoch.Load()))
	draining := 0.0
	if m.draining.Load() {
		draining = 1
	}
	p.metric("buckwild_serve_draining", "gauge", "1 while the server drains after SIGTERM.", draining)
}
