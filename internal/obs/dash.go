package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// This file holds the live HTML dashboard: a dependency-free page at
// /debug/dash that renders the training loss and throughput series, the
// staleness histogram, per-node cluster stats and serve latency
// quantiles from a Server-Sent-Events feed at /debug/dash/events, built
// from a Surface's sensors. The page is one self-contained HTML string —
// no build step, no external assets — so it works from a laptop pointed
// at a daemon in a netns with no egress.

// dashInterval is the SSE push cadence.
const dashInterval = time.Second

// dashSnapshot is one SSE event payload.
type dashSnapshot struct {
	Time    time.Time       `json:"time"`
	Series  *SeriesSnapshot `json:"series,omitempty"`
	Cluster *ClusterStats   `json:"cluster,omitempty"`
	Serve   *ServeStats     `json:"serve,omitempty"`
}

// dashEvents is the SSE feed: one "snapshot" event immediately on
// connect, then one per dashInterval until the client goes away.
// Payloads are compact JSON (single line, as SSE data framing requires).
func (s *Surface) dashEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	send := func() bool {
		data, err := json.Marshal(dashSnapshot{
			Time: time.Now(), Series: s.Series.Snapshot(),
			Cluster: s.Cluster.Snapshot(), Serve: s.Serve.Snapshot(),
		})
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: snapshot\ndata: %s\n\n", data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !send() {
		return
	}
	tick := time.NewTicker(dashInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
			if !send() {
				return
			}
		}
	}
}

// dashHTML is the whole dashboard. Colors are the validated dark-mode
// palette (surface #1a1a19; ink #ffffff/#c3c2b7/#898781; grid #2c2c2a;
// baseline #383835; series blue #3987e5 and orange #d95926; status good
// #0ca30c / warning #fab219). One measure per chart — loss and
// steps/sec never share an axis.
const dashHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>buckwild · live</title>
<style>
  :root {
    --surface: #1a1a19; --panel: #222221;
    --ink: #ffffff; --ink2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --blue: #3987e5; --orange: #d95926;
    --good: #0ca30c; --warn: #fab219;
  }
  * { box-sizing: border-box; }
  body { margin: 0; padding: 16px 20px; background: var(--surface); color: var(--ink2);
         font: 13px/1.45 ui-sans-serif, system-ui, sans-serif; }
  h1 { font-size: 15px; color: var(--ink); margin: 0; font-weight: 600; }
  header { display: flex; align-items: baseline; gap: 12px; margin-bottom: 14px; }
  #status { color: var(--muted); font-size: 12px; }
  #status::before { content: "●"; margin-right: 5px; color: var(--warn); }
  #status.ok::before { color: var(--good); }
  .grid { display: grid; grid-template-columns: repeat(auto-fit, minmax(340px, 1fr)); gap: 14px; }
  .card { background: var(--panel); border: 1px solid var(--grid); border-radius: 6px;
          padding: 12px 14px; }
  .card h2 { font-size: 12px; font-weight: 600; color: var(--ink2); margin: 0 0 8px;
             text-transform: uppercase; letter-spacing: .04em; }
  .card.hidden { display: none; }
  svg text { font: 11px ui-sans-serif, system-ui, sans-serif; fill: var(--muted); }
  svg .val { fill: var(--ink2); }
  table { border-collapse: collapse; width: 100%; font-size: 12px; }
  th { text-align: right; color: var(--muted); font-weight: 500; padding: 3px 8px;
       border-bottom: 1px solid var(--baseline); }
  th:first-child, td:first-child { text-align: left; }
  td { text-align: right; padding: 3px 8px; border-bottom: 1px solid var(--grid);
       font-variant-numeric: tabular-nums; }
  .tiles { display: flex; gap: 18px; flex-wrap: wrap; }
  .tile .v { font-size: 22px; color: var(--ink); font-variant-numeric: tabular-nums; }
  .tile .k { font-size: 11px; color: var(--muted); }
</style>
</head>
<body>
<header><h1>buckwild live dashboard</h1><span id="status">connecting</span></header>
<div class="grid">
  <div class="card hidden" id="card-loss"><h2>Loss per window</h2><svg id="loss" width="100%" height="150" viewBox="0 0 360 150" preserveAspectRatio="none"></svg></div>
  <div class="card hidden" id="card-sps"><h2>Steps per second</h2><svg id="sps" width="100%" height="150" viewBox="0 0 360 150" preserveAspectRatio="none"></svg></div>
  <div class="card hidden" id="card-stale"><h2>Staleness (updates between read and write)</h2><svg id="stale" width="100%" height="150" viewBox="0 0 360 150" preserveAspectRatio="none"></svg></div>
  <div class="card hidden" id="card-serve"><h2>Serve latency</h2><div class="tiles" id="serve"></div></div>
  <div class="card hidden" id="card-nodes"><h2>Cluster nodes</h2><div id="nodes"></div></div>
</div>
<script>
"use strict";
const $ = id => document.getElementById(id);
const show = (id, on) => $("card-" + id).classList.toggle("hidden", !on);
const fmt = v => {
  if (!isFinite(v)) return "—";
  const a = Math.abs(v);
  if (a >= 1e6) return (v / 1e6).toFixed(1) + "M";
  if (a >= 1e4) return (v / 1e3).toFixed(1) + "k";
  if (a >= 100 || v === Math.round(v)) return v.toFixed(0);
  return v.toPrecision(3);
};

// quantile walks a {buckets:[{lo,n}],count} histogram to the bucket
// containing the p-th sample (same approximation the Go side uses).
function quantile(h, p) {
  if (!h || !h.count) return NaN;
  const target = p * h.count;
  let cum = 0;
  for (const b of h.buckets || []) {
    cum += b.n;
    if (cum >= target) return b.lo;
  }
  return h.max;
}

// line draws a single-series line chart: recessive gridlines, a 2px
// series stroke, and a direct label on the latest value. One measure,
// one axis — never a second scale.
function line(svg, pts, color) {
  const W = 360, H = 150, L = 44, R = 12, T = 10, B = 18;
  let lo = Math.min(...pts.map(p => p.y)), hi = Math.max(...pts.map(p => p.y));
  if (!isFinite(lo)) { svg.innerHTML = ""; return; }
  if (hi === lo) { hi += 1; lo -= 1; }
  const pad = (hi - lo) * 0.08; lo -= pad; hi += pad;
  const xlo = pts[0].x, xhi = pts[pts.length - 1].x || 1;
  const X = x => L + (W - L - R) * (xhi === xlo ? 0.5 : (x - xlo) / (xhi - xlo));
  const Y = y => T + (H - T - B) * (1 - (y - lo) / (hi - lo));
  let s = "";
  for (let i = 0; i <= 3; i++) {
    const v = lo + (hi - lo) * i / 3, y = Y(v).toFixed(1);
    s += '<line x1="' + L + '" y1="' + y + '" x2="' + (W - R) + '" y2="' + y +
         '" stroke="' + (i ? "#2c2c2a" : "#383835") + '"/>' +
         '<text x="' + (L - 5) + '" y="' + (+y + 3.5) + '" text-anchor="end">' + fmt(v) + "</text>";
  }
  s += '<text x="' + L + '" y="' + (H - 4) + '">' + fmt(xlo) + "</text>" +
       '<text x="' + (W - R) + '" y="' + (H - 4) + '" text-anchor="end">epoch ' + fmt(xhi) + "</text>";
  const d = pts.map((p, i) => (i ? "L" : "M") + X(p.x).toFixed(1) + " " + Y(p.y).toFixed(1)).join(" ");
  s += '<path d="' + d + '" fill="none" stroke="' + color + '" stroke-width="2"/>';
  const last = pts[pts.length - 1];
  s += '<circle cx="' + X(last.x).toFixed(1) + '" cy="' + Y(last.y).toFixed(1) +
       '" r="3.5" fill="' + color + '" stroke="#1a1a19" stroke-width="2">' +
       "<title>epoch " + last.x + ": " + last.y + "</title></circle>" +
       '<text class="val" x="' + (X(last.x) - 6).toFixed(1) + '" y="' + (Y(last.y) - 7).toFixed(1) +
       '" text-anchor="end">' + fmt(last.y) + "</text>";
  svg.innerHTML = s;
}

// bars draws the staleness histogram: one hue (the chart has one
// series), 2px surface gaps between bars, direct counts on the tallest.
function bars(svg, hist) {
  const bs = (hist.buckets || []).filter(b => b.n > 0);
  if (!bs.length) { svg.innerHTML = ""; return; }
  const W = 360, H = 150, T = 10, B = 20, L = 8, R = 8;
  const max = Math.max(...bs.map(b => b.n));
  const bw = (W - L - R) / bs.length;
  let s = "";
  bs.forEach((b, i) => {
    const h = Math.max(2, (H - T - B) * b.n / max);
    const x = L + i * bw + 1, y = H - B - h;
    s += '<rect x="' + x.toFixed(1) + '" y="' + y.toFixed(1) + '" width="' + (bw - 2).toFixed(1) +
         '" height="' + h.toFixed(1) + '" rx="2" fill="#3987e5"><title>staleness ≥ ' + b.lo +
         ": " + b.n + "</title></rect>" +
         '<text x="' + (x + (bw - 2) / 2).toFixed(1) + '" y="' + (H - 6) +
         '" text-anchor="middle">' + fmt(b.lo) + "</text>";
    if (b.n === max) s += '<text class="val" x="' + (x + (bw - 2) / 2).toFixed(1) + '" y="' +
         (y - 4).toFixed(1) + '" text-anchor="middle">' + fmt(b.n) + "</text>";
  });
  s += '<line x1="' + L + '" y1="' + (H - B) + '" x2="' + (W - R) + '" y2="' + (H - B) +
       '" stroke="#383835"/>';
  svg.innerHTML = s;
}

function tile(k, v) {
  return '<div class="tile"><div class="v">' + v + '</div><div class="k">' + k + "</div></div>";
}

function render(s) {
  const win = s.series && s.series.windows && s.series.windows.length ? s.series.windows : null;
  show("loss", !!win); show("sps", !!win);
  if (win) {
    line($("loss"), win.map(w => ({x: w.end_epoch, y: w.loss})), "#3987e5");
    line($("sps"), win.map(w => ({x: w.end_epoch, y: w.steps_per_sec})), "#d95926");
  }
  let stale = null;
  if (win) {
    const last = win[win.length - 1];
    if (last.staleness && last.staleness.count) stale = last.staleness;
  }
  if (!stale && s.cluster && s.cluster.staleness && s.cluster.staleness.count) stale = s.cluster.staleness;
  show("stale", !!stale);
  if (stale) bars($("stale"), stale);
  show("serve", !!(s.serve && s.serve.requests));
  if (s.serve && s.serve.requests) {
    const h = s.serve.latency_us;
    $("serve").innerHTML =
      tile("p50 µs", fmt(quantile(h, 0.5))) + tile("p90 µs", fmt(quantile(h, 0.9))) +
      tile("p99 µs", fmt(quantile(h, 0.99))) + tile("requests", fmt(s.serve.requests)) +
      tile("in flight", fmt(s.serve.in_flight || 0)) + tile("model epoch", fmt(s.serve.model_epoch));
  }
  const nodes = s.cluster && s.cluster.per_node && s.cluster.per_node.length ? s.cluster.per_node : null;
  show("nodes", !!nodes);
  if (nodes) {
    let t = "<table><tr><th>node</th><th>updates</th><th>wire KiB</th><th>compute s</th>" +
            "<th>comm s</th><th>stale p50</th><th>stale p99</th></tr>";
    for (const n of nodes)
      t += "<tr><td>" + n.node + "</td><td>" + fmt(n.updates) + "</td><td>" +
           fmt(n.wire_bytes / 1024) + "</td><td>" + fmt(n.compute_seconds) + "</td><td>" +
           fmt(n.comm_seconds) + "</td><td>" + fmt(n.staleness_p50) + "</td><td>" +
           fmt(n.staleness_p99) + "</td></tr>";
    $("nodes").innerHTML = t + "</table>";
  }
  const st = $("status");
  st.classList.add("ok");
  st.textContent = "live · " + new Date(s.time).toLocaleTimeString();
}

const es = new EventSource(location.pathname.replace(/\/$/, "") + "/events");
es.addEventListener("snapshot", e => render(JSON.parse(e.data)));
es.onerror = () => { const st = $("status"); st.classList.remove("ok"); st.textContent = "reconnecting"; };
</script>
</body>
</html>
`
