package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	"buckwild/internal/obs"
)

// traceDoc is the slice of the trace_event document these tests inspect.
type traceDoc struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

func traceCluster(t *testing.T, proto Protocol) []byte {
	t.Helper()
	ds := clusterData(t)
	tr := obs.NewTracer(0)
	clusterRun(t, ds, Config{
		Nodes: 3, Protocol: proto, WireBits: 8, ErrorFeedback: true,
		Epochs: 2, Observer: &obs.Observer{Tracer: tr},
	})
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestClusterTracePerNodeTracks(t *testing.T) {
	for _, proto := range []Protocol{ParamServer, AllReduce} {
		raw := traceCluster(t, proto)
		var doc traceDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		tracks := map[int]string{}
		spans := map[string]int{}   // span name -> count
		flowTID := map[string]int{} // flow name+phase -> distinct endpoint count
		for _, ev := range doc.TraceEvents {
			switch ev.Ph {
			case "M":
				if ev.Name == "thread_name" {
					tracks[ev.Tid] = ev.Args["name"]
				}
			case "X", "i":
				spans[ev.Name]++
			case "s", "f":
				flowTID[ev.Name+"/"+ev.Ph]++
			}
		}
		// One compute and one comm track per node, plus the server track.
		for k := 0; k < 3; k++ {
			for _, kind := range []string{"compute", "comm"} {
				want := fmt.Sprintf("cluster/node-%d %s", k, kind)
				found := false
				for _, name := range tracks {
					if name == want {
						found = true
					}
				}
				if !found {
					t.Errorf("%v: missing track %q (have %v)", proto, want, tracks)
				}
			}
		}
		if spans["compute"] == 0 || spans["quantize"] == 0 {
			t.Errorf("%v: missing compute/quantize spans: %v", proto, spans)
		}
		// Wire messages must appear as matched flow pairs.
		switch proto {
		case ParamServer:
			for _, name := range []string{"pull", "grad", "model"} {
				if flowTID[name+"/s"] == 0 || flowTID[name+"/s"] != flowTID[name+"/f"] {
					t.Errorf("param-server: unmatched %q flows: %v", name, flowTID)
				}
			}
		case AllReduce:
			if flowTID["reduce/s"] == 0 || flowTID["reduce/s"] != flowTID["reduce/f"] {
				t.Errorf("all-reduce: unmatched reduce flows: %v", flowTID)
			}
		}
	}
}

func TestClusterTraceTrackSummary(t *testing.T) {
	raw := traceCluster(t, ParamServer)
	tracks, err := obs.SummarizeTracks(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.TrackSummary{}
	for _, tr := range tracks {
		byName[tr.Name] = tr
	}
	server, ok := byName["cluster/server"]
	if !ok {
		t.Fatalf("no server track in summary: %+v", tracks)
	}
	if server.Spans == 0 || server.Flows == 0 || server.Total <= 0 {
		t.Errorf("server track summary = %+v", server)
	}
	for k := 0; k < 3; k++ {
		comm, ok := byName[fmt.Sprintf("cluster/node-%d comm", k)]
		if !ok || comm.Spans == 0 || comm.Flows == 0 {
			t.Errorf("node %d comm track summary missing or empty: %+v (ok=%v)", k, comm, ok)
		}
		compute, ok := byName[fmt.Sprintf("cluster/node-%d compute", k)]
		if !ok || compute.Spans == 0 {
			t.Errorf("node %d compute track summary missing or empty: %+v (ok=%v)", k, compute, ok)
		}
	}
	// The phase summary over the same bytes still works (the CLI prints
	// both from one read).
	phases, err := obs.SummarizeTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range phases {
		names = append(names, p.Name)
	}
	if joined := strings.Join(names, ","); !strings.Contains(joined, "compute") {
		t.Errorf("phase summary lost cluster spans: %v", joined)
	}
}

func TestClusterPerNodeStatsAndLiveMetrics(t *testing.T) {
	ds := clusterData(t)
	live := &obs.ClusterMetrics{}
	rec := obs.NewFlightRecorder(16)
	res := clusterRun(t, ds, Config{
		Nodes: 3, Protocol: ParamServer, WireBits: 8, ErrorFeedback: true,
		Epochs: 2, Live: live,
		Logger: obs.Component(slog.New(rec.LogHandler(nil)), "cluster"),
	})
	c := res.Cluster
	if len(c.PerNode) != 3 {
		t.Fatalf("per-node stats = %d entries, want 3", len(c.PerNode))
	}
	var updates, wire uint64
	for i, nd := range c.PerNode {
		if nd.Node != i {
			t.Errorf("per-node[%d].Node = %d", i, nd.Node)
		}
		if nd.Updates == 0 || nd.WireBytes == 0 || nd.ComputeSeconds <= 0 {
			t.Errorf("per-node[%d] = %+v", i, nd)
		}
		if nd.StalenessP99 < nd.StalenessP50 {
			t.Errorf("per-node[%d] staleness p99 %v < p50 %v", i, nd.StalenessP99, nd.StalenessP50)
		}
		updates += nd.Updates
		wire += nd.WireBytes
	}
	if updates != uint64(res.Steps) {
		t.Errorf("per-node updates sum %d != total steps %d", updates, res.Steps)
	}
	if wire != c.WireBytes {
		t.Errorf("per-node wire bytes sum %d != total %d", wire, c.WireBytes)
	}

	// The live counters saw the same totals, and scrape as labeled
	// Prometheus series.
	var buf bytes.Buffer
	if err := (&obs.Surface{Cluster: live}).WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`buckwild_cluster_node_updates_total{node="0"}`,
		`buckwild_cluster_node_wire_bytes_total{node="2"}`,
		`buckwild_cluster_node_staleness_p99{node="1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("live exposition missing %q:\n%s", want, out)
		}
	}

	// Epoch completions, logged, landed in the flight ring.
	snap := rec.Snapshot()
	epochs := 0
	for _, ev := range snap.Events {
		if ev.Component == "cluster" && ev.Kind == "epoch" {
			epochs++
		}
	}
	if epochs != 2 {
		t.Errorf("flight ring holds %d cluster epoch events, want 2", epochs)
	}
}
