package cluster

import (
	"container/heap"
	"fmt"

	"buckwild/internal/core"
)

// The parameter server is simulated as a discrete-event system on a
// single goroutine: every message arrival is an event on a time-ordered
// heap, ties broken by a monotonic sequence number. The modeled
// execution is fully asynchronous — nodes race, pushes land stale — but
// the simulation itself is sequential, so a fixed seed reproduces the
// run bit for bit (the determinism tests pin this).
//
// Message flow per node: one bootstrap pull request (header-only), then
// a combined push/pull loop — the server applies each arriving gradient
// and replies with a fresh model snapshot, which triggers the node's
// next batch. The reply to a node's final push is skipped, so every
// counted message does protocol work.

type psEventKind int

const (
	evPull  psEventKind = iota // pull request arrives at the server
	evModel                    // model snapshot arrives at a node
	evPush                     // gradient push arrives at the server
)

type psEvent struct {
	t    float64
	seq  uint64
	kind psEventKind
	node int
}

// psQueue is the event heap, ordered by (time, sequence).
type psQueue []psEvent

func (q psQueue) Len() int { return len(q) }
func (q psQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q psQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *psQueue) Push(x interface{}) { *q = append(*q, x.(psEvent)) }
func (q *psQueue) Pop() interface{} {
	old := *q
	n := len(old) - 1
	ev := old[n]
	*q = old[:n]
	return ev
}

// psNode is one simulated worker machine. Between a snapshot reply being
// scheduled and its arrival the node is idle, so the server writes the
// snapshot straight into the node's buffers — no event payload copies.
type psNode struct {
	w, g, residual []float32
	codec          *wireCodec
	lo, hi, next   int // shard bounds and batch cursor
	epoch          int
	pulled         uint64 // server version the current gradient was computed against
	pushEpoch      int    // epoch the in-flight push belongs to
	pushFinal      bool   // the in-flight push is this node's last
}

func (e *engine) runParamServer() (*core.Result, error) {
	cfg, ds := e.cfg, e.ds
	n := ds.N
	model := make([]float32, n)
	var version uint64

	nodes := make([]*psNode, cfg.Nodes)
	// remaining[epoch] counts pushes still outstanding for that epoch;
	// per-node pushes arrive in epoch order, so epochs complete in order
	// and the loss trajectory appends sequentially.
	remaining := make([]int, cfg.Epochs)
	total := ds.Len()
	for k := range nodes {
		lo, hi := k*total/cfg.Nodes, (k+1)*total/cfg.Nodes
		codec, err := e.codec(k)
		if err != nil {
			return nil, err
		}
		nodes[k] = &psNode{
			w: make([]float32, n), g: make([]float32, n), residual: make([]float32, n),
			codec: codec, lo: lo, hi: hi, next: lo,
		}
		batches := (hi - lo + cfg.BatchPerNode - 1) / cfg.BatchPerNode
		for ep := range remaining {
			remaining[ep] += batches
		}
	}

	q := &psQueue{}
	var seq uint64
	schedule := func(t float64, kind psEventKind, node int) {
		heap.Push(q, psEvent{t: t, seq: seq, kind: kind, node: node})
		seq++
	}
	var simT, computeSec, commSec float64
	for k := range nodes {
		dt := e.meter.countControl()
		commSec += dt
		e.nodeSent(k, 0, dt)
		if st := e.st; st != nil {
			st.span("pull-request", st.commTID(k), 0, dt, nil)
			st.flowPair("pull", st.commTID(k), 0, st.serverTID(), dt)
		}
		schedule(dt, evPull, k)
	}

	modelPayload := 4 * n
	for q.Len() > 0 {
		if err := ctxErr(cfg.Ctx); err != nil {
			return nil, err
		}
		ev := heap.Pop(q).(psEvent)
		if ev.t > simT {
			simT = ev.t
		}
		nd := nodes[ev.node]
		switch ev.kind {
		case evPull:
			copy(nd.w, model)
			nd.pulled = version
			dt := e.meter.countModel(modelPayload)
			commSec += dt
			e.nodeSent(ev.node, modelPayload, dt)
			if st := e.st; st != nil {
				st.span("serve-pull", st.serverTID(), ev.t, ev.t+dt,
					map[string]string{"node": fmt.Sprint(ev.node)})
				st.span("model-xfer", st.commTID(ev.node), ev.t, ev.t+dt,
					map[string]string{"bytes": fmt.Sprint(DefaultHeaderBytes + modelPayload)})
				st.flowPair("model", st.serverTID(), ev.t, st.commTID(ev.node), ev.t+dt)
			}
			schedule(ev.t+dt, evModel, ev.node)

		case evModel:
			end := nd.next + cfg.BatchPerNode
			if end > nd.hi {
				end = nd.hi
			}
			e.accumGrad(nd.w, nd.g, nd.next, end)
			dt := computeSeconds(end-nd.next, n)
			computeSec += dt
			e.perNode[ev.node].ComputeSeconds += dt
			batch := end - nd.next
			nd.pushEpoch = nd.epoch
			nd.next = end
			if nd.next >= nd.hi {
				nd.next = nd.lo
				nd.epoch++
			}
			nd.pushFinal = nd.epoch >= cfg.Epochs
			payload := nd.codec.transfer(nd.g, nd.residual, cfg.ErrorFeedback, e.nc)
			ct := e.meter.countGrad(payload)
			commSec += ct
			e.nodeSent(ev.node, payload, ct)
			if st := e.st; st != nil {
				st.span("compute", st.computeTID(ev.node), ev.t, ev.t+dt, map[string]string{
					"epoch": fmt.Sprint(nd.pushEpoch), "batch": fmt.Sprint(batch),
				})
				st.instant("quantize", st.commTID(ev.node), ev.t+dt, map[string]string{
					"wire_bits": fmt.Sprint(cfg.WireBits), "payload_bytes": fmt.Sprint(payload),
				})
				st.span("push", st.commTID(ev.node), ev.t+dt, ev.t+dt+ct,
					map[string]string{"bytes": fmt.Sprint(DefaultHeaderBytes + payload)})
				st.flowPair("grad", st.commTID(ev.node), ev.t+dt, st.serverTID(), ev.t+dt+ct)
			}
			schedule(ev.t+dt+ct, evPush, ev.node)

		case evPush:
			staleness := version - nd.pulled
			eta, comp := cfg.compensate(cfg.etaAt(nd.pushEpoch), staleness)
			for j, gv := range nd.g {
				model[j] += eta * gv
			}
			version++
			e.observeUpdate(staleness, nd.g, comp)
			e.nodeUpdate(ev.node, staleness)
			remaining[nd.pushEpoch]--
			if remaining[nd.pushEpoch] == 0 {
				loss, err := core.SyncLoss(cfg.Problem, model, ds)
				if err != nil {
					return nil, err
				}
				e.epochDone(nd.pushEpoch+1, loss, ev.t)
			}
			replyEnd := ev.t
			if !nd.pushFinal {
				copy(nd.w, model)
				nd.pulled = version
				dt := e.meter.countModel(modelPayload)
				commSec += dt
				e.nodeSent(ev.node, modelPayload, dt)
				replyEnd = ev.t + dt
				if st := e.st; st != nil {
					st.span("model-xfer", st.commTID(ev.node), ev.t, replyEnd,
						map[string]string{"bytes": fmt.Sprint(DefaultHeaderBytes + modelPayload)})
					st.flowPair("model", st.serverTID(), ev.t, st.commTID(ev.node), replyEnd)
				}
				schedule(replyEnd, evModel, ev.node)
			}
			if st := e.st; st != nil {
				// The apply span covers the reply transfer too, so the
				// push's flow arrow and the reply's flow origin both land
				// inside a server slice.
				st.span("apply", st.serverTID(), ev.t, replyEnd, map[string]string{
					"node": fmt.Sprint(ev.node), "staleness": fmt.Sprint(staleness),
					"eta": fmt.Sprintf("%.6g", eta),
				})
			}
		}
	}
	return e.result(model, simT, computeSec, commSec), nil
}
