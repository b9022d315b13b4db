package cluster

import "buckwild/internal/obs"

// The interconnect: a 10 GbE-class fabric (50 µs one-way latency,
// 1.25 GB/s per-NIC bandwidth) and a 16-byte message header carrying
// source node, message kind, round number and payload length — the wire
// format contract documented in DESIGN.md §11. Every message costs
// Latency + bytes/Bandwidth simulated seconds, where bytes is the exact
// framed size (header + payload); nodes send serially through one NIC
// but distinct nodes transfer in parallel.
const (
	DefaultLatencySec  = 50e-6
	DefaultBandwidth   = 1.25e9 // bytes per second per NIC
	DefaultHeaderBytes = 16
)

// sendSeconds is the simulated transfer time of one framed message of
// payload bytes.
func sendSeconds(payload int) float64 {
	return DefaultLatencySec + float64(DefaultHeaderBytes+payload)/DefaultBandwidth
}

// wireMeter accumulates the exact byte accounting of a run. Every
// simulated message goes through exactly one of the count methods, so the
// ClusterStats invariant WireBytes == HeaderBytes + GradBytes + ModelBytes
// holds by construction.
type wireMeter struct {
	messages   uint64
	headerB    uint64
	gradB      uint64
	modelB     uint64
	gradPushes uint64
	modelPulls uint64
}

// countControl records a payload-free message (e.g. the bootstrap pull
// request) and returns its transfer time.
func (m *wireMeter) countControl() float64 {
	m.messages++
	m.headerB += DefaultHeaderBytes
	return sendSeconds(0)
}

// countGrad records a gradient-carrying message of payload bytes.
func (m *wireMeter) countGrad(payload int) float64 {
	m.messages++
	m.gradPushes++
	m.headerB += DefaultHeaderBytes
	m.gradB += uint64(payload)
	return sendSeconds(payload)
}

// countModel records a model-carrying message of payload bytes.
func (m *wireMeter) countModel(payload int) float64 {
	m.messages++
	m.modelPulls++
	m.headerB += DefaultHeaderBytes
	m.modelB += uint64(payload)
	return sendSeconds(payload)
}

// fillStats writes the meter's totals into a ClusterStats snapshot.
func (m *wireMeter) fillStats(s *obs.ClusterStats) {
	s.Messages = m.messages
	s.GradPushes = m.gradPushes
	s.ModelPulls = m.modelPulls
	s.HeaderBytes = m.headerB
	s.GradBytes = m.gradB
	s.ModelBytes = m.modelB
	s.WireBytes = m.headerB + m.gradB + m.modelB
}
