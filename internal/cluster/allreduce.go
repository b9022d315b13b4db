package cluster

import (
	"fmt"

	"buckwild/internal/core"
)

// The all-reduce protocol runs the nodes in lockstep rounds and pipelines
// communication behind compute with double buffering: the reduction of
// round r's gradients is in flight while round r+1 computes, and its
// update lands on the model exactly one round late (staleness 1). Each
// round a node quantizes its mean batch gradient once and broadcasts it
// to the N-1 peers (a direct exchange), so the counted wire bytes
// correspond exactly to the numerics: every node sums the same N decoded
// gradients in full precision, the synchronous engine's quantize-once
// discipline on a network wire.
func (e *engine) runAllReduce() (*core.Result, error) {
	cfg, ds := e.cfg, e.ds
	n := ds.N
	w := make([]float32, n)

	type arNode struct {
		g, residual []float32
		codec       *wireCodec
		lo, hi      int
	}
	nodes := make([]*arNode, cfg.Nodes)
	total := ds.Len()
	// Shards differ by at most one example, so nodes can disagree by one
	// on their batch count; a node past its shard contributes a zero
	// gradient (plus any error-feedback residual) and still broadcasts.
	rounds := 0
	for k := range nodes {
		lo, hi := k*total/cfg.Nodes, (k+1)*total/cfg.Nodes
		codec, err := e.codec(k)
		if err != nil {
			return nil, err
		}
		nodes[k] = &arNode{
			g: make([]float32, n), residual: make([]float32, n),
			codec: codec, lo: lo, hi: hi,
		}
		if b := (hi - lo + cfg.BatchPerNode - 1) / cfg.BatchPerNode; b > rounds {
			rounds = b
		}
	}

	// pending is the reduced update still in flight (double buffer).
	pending := make([]float32, n)
	havePending := false
	var pendEpoch int    // epoch the pending update belongs to
	var pendLast bool    // pending closes its epoch (loss point)
	var pendStale uint64 // model updates applied between its read and its landing
	var pendComm float64 // simulated seconds its reduction needs
	var simT, computeSec, commSec float64

	apply := func(t float64) error {
		eta, comp := cfg.compensate(cfg.etaAt(pendEpoch), pendStale)
		for j, uv := range pending {
			w[j] += eta * uv
		}
		e.observeUpdate(pendStale, pending, comp)
		// Every node contributed one gradient to the reduced update.
		for k := range nodes {
			e.nodeUpdate(k, pendStale)
		}
		if !pendLast {
			return nil
		}
		loss, err := core.SyncLoss(cfg.Problem, w, ds)
		if err != nil {
			return err
		}
		e.epochDone(pendEpoch+1, loss, t)
		return nil
	}

	// curCompute/curComm hold this round's per-node times; pendNodeComm is
	// the per-node communication of the reduction still in flight, kept so
	// its tracks can be drawn overlapping the next round's compute.
	curCompute := make([]float64, cfg.Nodes)
	curComm := make([]float64, cfg.Nodes)
	pendNodeComm := make([]float64, cfg.Nodes)

	globalRound := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for r := 0; r < rounds; r++ {
			if err := ctxErr(cfg.Ctx); err != nil {
				return nil, err
			}
			roundStart := simT
			// Compute: every node's mean gradient at the current model,
			// which is still missing the in-flight update.
			var computeRound float64
			for ki, nd := range nodes {
				lo := nd.lo + r*cfg.BatchPerNode
				end := lo + cfg.BatchPerNode
				if lo > nd.hi {
					lo = nd.hi
				}
				if end > nd.hi {
					end = nd.hi
				}
				e.accumGrad(w, nd.g, lo, end)
				dt := computeSeconds(end-lo, n)
				computeSec += dt
				e.perNode[ki].ComputeSeconds += dt
				curCompute[ki] = dt
				if dt > computeRound {
					computeRound = dt
				}
				if st := e.st; st != nil && dt > 0 {
					st.span("compute", st.computeTID(ki), roundStart, roundStart+dt, map[string]string{
						"epoch": fmt.Sprint(epoch), "round": fmt.Sprint(globalRound),
						"batch": fmt.Sprint(end - lo),
					})
				}
			}
			// Exchange: quantize once, broadcast to the peers. A node's
			// sends are serial through its NIC; distinct nodes overlap.
			var commRound float64
			for ki, nd := range nodes {
				payload := nd.codec.transfer(nd.g, nd.residual, cfg.ErrorFeedback, e.nc)
				var nodeComm float64
				for p := 1; p < cfg.Nodes; p++ {
					ct := e.meter.countGrad(payload)
					nodeComm += ct
					e.nodeSent(ki, payload, ct)
				}
				curComm[ki] = nodeComm
				commSec += nodeComm
				if nodeComm > commRound {
					commRound = nodeComm
				}
				if st := e.st; st != nil {
					st.instant("quantize", st.commTID(ki), roundStart+curCompute[ki], map[string]string{
						"wire_bits": fmt.Sprint(cfg.WireBits), "payload_bytes": fmt.Sprint(payload),
					})
				}
			}
			// Round barrier: wait for this round's compute and the
			// previous round's reduction, whichever finishes later.
			wait := computeRound
			if havePending {
				if pendComm > wait {
					wait = pendComm
				}
				if computeRound < pendComm {
					e.stats.OverlapSavedSeconds += computeRound
				} else {
					e.stats.OverlapSavedSeconds += pendComm
				}
			}
			if st := e.st; st != nil {
				// The in-flight reduction's wire time renders on each comm
				// track, overlapping this round's compute spans — the
				// pipelining overlap, visible. Arrows join each broadcast
				// to the barrier where its reduced update lands.
				if havePending {
					for k := range nodes {
						if pendNodeComm[k] <= 0 {
							continue
						}
						st.span("reduce-flight", st.commTID(k), roundStart, roundStart+pendNodeComm[k],
							map[string]string{"round": fmt.Sprint(globalRound - 1)})
						st.flowPair("reduce", st.commTID(k), roundStart+pendNodeComm[k],
							st.serverTID(), roundStart+wait)
					}
				}
				st.span("round", st.serverTID(), roundStart, roundStart+wait, map[string]string{
					"epoch": fmt.Sprint(epoch), "round": fmt.Sprint(globalRound),
					"staleness": fmt.Sprint(pendStale),
				})
			}
			simT += wait
			if havePending {
				if err := apply(simT); err != nil {
					return nil, err
				}
			}
			// Stage this round's reduction: the full-precision mean of
			// the N decoded gradients.
			inv := 1 / float32(cfg.Nodes)
			for j := range pending {
				var sum float32
				for _, nd := range nodes {
					sum += nd.g[j]
				}
				pending[j] = sum * inv
			}
			havePending = true
			pendEpoch = epoch
			pendLast = r == rounds-1
			pendComm = commRound
			pendNodeComm, curComm = curComm, pendNodeComm
			if globalRound == 0 {
				pendStale = 0
			} else {
				pendStale = 1
			}
			globalRound++
		}
	}
	// Flush: the last reduction has nothing to hide behind.
	if havePending {
		flushStart := simT
		simT += pendComm
		if st := e.st; st != nil {
			for k := range nodes {
				if pendNodeComm[k] <= 0 {
					continue
				}
				st.span("reduce-flight", st.commTID(k), flushStart, flushStart+pendNodeComm[k],
					map[string]string{"round": fmt.Sprint(globalRound - 1)})
				st.flowPair("reduce", st.commTID(k), flushStart+pendNodeComm[k],
					st.serverTID(), simT)
			}
			st.span("round", st.serverTID(), flushStart, simT,
				map[string]string{"round": "flush", "staleness": fmt.Sprint(pendStale)})
		}
		if err := apply(simT); err != nil {
			return nil, err
		}
	}
	return e.result(w, simT, computeSec, commSec), nil
}
