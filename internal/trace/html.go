package trace

// html.go is the explorable single-page trace viewer: WriteHTML embeds
// the trace's derived views — disk and service-pool timelines,
// utilization/bandwidth/queue-depth/occupancy time series, per-request
// critical paths — as one JSON blob inside a self-contained HTML page
// with inline CSS and vanilla JS. No external assets, no network, no
// timestamps: for a given trace the page is byte-deterministic, so it
// is golden-testable and the daemon can serve the identical bytes the
// CLI writes (pinned by the serve golden test).
//
// Scale guards keep the page loadable for big runs: timelines coalesce
// busy intervals separated by less than 1/2000 of the horizon (below
// one CSS pixel at page width), and the request table keeps the 512
// slowest requests (the interesting tail; the total is still shown).

import (
	"cmp"
	"encoding/json"
	"fmt"
	"html"
	"io"
	"slices"

	"ddio/internal/stats"
)

// htmlMaxRequests caps the request table at the slowest N requests.
const htmlMaxRequests = 512

// htmlSpan is one busy interval in milliseconds.
type htmlSpan struct {
	S float64 `json:"s"`
	E float64 `json:"e"`
}

// htmlTimeline is one component row of the viewer.
type htmlTimeline struct {
	Name  string     `json:"name"`
	Util  float64    `json:"util"`
	Spans []htmlSpan `json:"spans"`
}

// htmlSeries is one time series: values at bin midpoints.
type htmlSeries struct {
	Name  string    `json:"name"`
	BinMs float64   `json:"bin_ms"`
	Y     []float64 `json:"y"`
}

// htmlRequest is one critical-path row, times in milliseconds.
type htmlRequest struct {
	Node    string  `json:"node"`
	ID      int64   `json:"id"`
	Start   float64 `json:"start_ms"`
	Latency float64 `json:"latency_ms"`
	Disk    float64 `json:"disk_ms"`
	Retry   float64 `json:"retry_ms"`
	Service float64 `json:"service_ms"`
	Queue   float64 `json:"queue_ms"`
}

// htmlData is the embedded payload; field order is the marshal order,
// so the blob is deterministic.
type htmlData struct {
	Title        string         `json:"title"`
	HorizonMs    float64        `json:"horizon_ms"`
	Events       int            `json:"events"`
	MeanDiskUtil float64        `json:"mean_disk_util"`
	Latency      stats.Summary  `json:"latency"`
	Disks        []htmlTimeline `json:"disks"`
	Pools        []htmlTimeline `json:"pools"`
	Series       []htmlSeries   `json:"series"`
	Requests     []htmlRequest  `json:"requests"`
	TotalReqs    int            `json:"total_requests"`
}

// htmlTimelines converts Timelines to the wire rows, merging busy
// intervals separated by less than horizon/2000 — sub-pixel idle
// slivers that would only bloat the page. The timelines are not
// modified.
func htmlTimelines(tls []Timeline, horizon int64) []htmlTimeline {
	gap := horizon / 2000
	out := make([]htmlTimeline, len(tls))
	for i, tl := range tls {
		var spans []Interval
		for _, iv := range tl.Busy {
			if n := len(spans); n > 0 && iv.Start-spans[n-1].End < gap {
				spans[n-1].End = max(spans[n-1].End, iv.End)
				continue
			}
			spans = append(spans, iv)
		}
		row := htmlTimeline{Name: tl.Name, Util: tl.Util, Spans: make([]htmlSpan, len(spans))}
		for k, iv := range spans {
			row.Spans[k] = htmlSpan{S: float64(iv.Start) / 1e6, E: float64(iv.End) / 1e6}
		}
		out[i] = row
	}
	return out
}

// WriteHTML writes the self-contained trace viewer page. The horizon and
// the disk timelines are computed once and shared by every view that
// needs them, and only the requests the table shows are decomposed.
func (r *Recorder) WriteHTML(w io.Writer, title string) error {
	horizon := r.End()
	bin := defaultBin(horizon, 0)
	disks := r.DiskTimelines(horizon)
	d := htmlData{
		Title:        title,
		HorizonMs:    float64(horizon) / 1e6,
		Events:       r.Len(),
		MeanDiskUtil: meanUtil(disks),
		Latency:      r.RequestLatencies(),
		Pools:        htmlTimelines(r.PoolTimelines(horizon), horizon),
		Requests:     []htmlRequest{},
	}
	util := utilizationSeries(disks, horizon, bin)
	d.Disks = htmlTimelines(disks, horizon)
	bw := r.BandwidthSeries(bin)
	for i := range bw.Y {
		bw.Y[i] /= 1 << 20 // bytes/s → MiB/s
	}
	bw.Name = "disk bandwidth (MB/s)"
	occ := r.OccupancySeries(bin)
	d.Series = append(d.Series, toHTMLSeries(util), toHTMLSeries(bw), toHTMLSeries(occ))
	for _, qs := range r.QueueDepthSeries(bin) {
		d.Series = append(d.Series, toHTMLSeries(qs))
	}

	var slowest []*Event
	slowest, d.TotalReqs = r.slowestRequests(htmlMaxRequests)
	if len(slowest) > 0 {
		u := r.pathUnions()
		for _, e := range slowest {
			p := u.decompose(e)
			d.Requests = append(d.Requests, htmlRequest{
				Node:    p.Node,
				ID:      p.ID,
				Start:   float64(p.Start) / 1e6,
				Latency: float64(p.End-p.Start) / 1e6,
				Disk:    float64(p.Disk) / 1e6,
				Retry:   float64(p.Retry) / 1e6,
				Service: float64(p.Service) / 1e6,
				Queue:   float64(p.Queue) / 1e6,
			})
		}
	}

	blob, err := json.Marshal(&d) // json.Marshal escapes <>& — safe inside <script>
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, htmlPage, html.EscapeString(title), blob); err != nil {
		return err
	}
	return nil
}

// slowerRequest orders completed requests for the viewer's table:
// duration descending, then node, id and start ascending, then trace
// order, so the order is total and deterministic.
func slowerRequest(a, b *Event) int {
	return cmp.Or(
		cmp.Compare(b.End-b.T, a.End-a.T),
		cmp.Compare(a.Node, b.Node),
		cmp.Compare(a.ID, b.ID),
		cmp.Compare(a.T, b.T),
		cmp.Compare(a.Seq, b.Seq),
	)
}

// slowestRequests returns the k first KindReqEnd events in slowerRequest
// order, in that order, and the total number of completed requests. It
// keeps a bounded heap whose root is the fastest request kept so far,
// so a trace of n requests costs O(n log k), not a sort of all n.
func (r *Recorder) slowestRequests(k int) ([]*Event, int) {
	var h []*Event
	total := 0
	for e := range r.all() {
		if e.Kind != KindReqEnd {
			continue
		}
		total++
		switch {
		case len(h) < k:
			h = append(h, e)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if slowerRequest(h[i], h[p]) <= 0 {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
		case slowerRequest(e, h[0]) < 0:
			h[0] = e
			for i := 0; ; {
				c := 2*i + 1
				if c >= len(h) {
					break
				}
				if c+1 < len(h) && slowerRequest(h[c+1], h[c]) > 0 {
					c++
				}
				if slowerRequest(h[c], h[i]) <= 0 {
					break
				}
				h[i], h[c] = h[c], h[i]
				i = c
			}
		}
	}
	slices.SortFunc(h, slowerRequest)
	return h, total
}

// toHTMLSeries converts a Series to wire form (bin in ms).
func toHTMLSeries(s Series) htmlSeries {
	y := s.Y
	if y == nil {
		y = []float64{}
	}
	return htmlSeries{Name: s.Name, BinMs: float64(s.Bin) / 1e6, Y: y}
}

// htmlPage is the viewer shell: %s slots are the escaped title and the
// JSON payload. Everything else is constant, so page bytes are a pure
// function of the trace.
const htmlPage = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>%s — ddio trace</title>
<style>
:root{--surface:#fcfcfb;--ink:#0b0b0b;--ink2:#52514e;--grid:#e5e4e0;
--blue:#2a78d6;--orange:#eb6834;--aqua:#1baf7a;--yellow:#eda100;--magenta:#e87ba4;--green:#008300}
body{background:var(--surface);color:var(--ink);font-family:ui-sans-serif,system-ui,'Helvetica Neue',Arial,sans-serif;
margin:24px auto;max-width:1080px;padding:0 16px;font-size:14px}
h1{font-size:18px;margin:0 0 4px}
h2{font-size:14px;margin:28px 0 8px;border-bottom:1px solid var(--grid);padding-bottom:4px}
.sub{color:var(--ink2);font-size:12px;margin-bottom:16px}
.row{display:flex;align-items:center;margin:3px 0}
.rl{width:110px;text-align:right;padding-right:8px;color:var(--ink2);font-size:11px;
white-space:nowrap;overflow:hidden;text-overflow:ellipsis}
.track{position:relative;flex:1;height:16px;background:var(--grid);border-radius:2px;overflow:hidden}
.span{position:absolute;top:0;height:100%%;background:var(--blue)}
.pool .span{background:var(--aqua)}
.band{position:absolute;top:0;height:100%%;background:rgba(235,104,52,.35);display:none;pointer-events:none}
.ru{width:48px;padding-left:8px;font-size:11px}
svg{display:block}
table{border-collapse:collapse;width:100%%;font-size:12px}
th,td{text-align:right;padding:3px 8px;border-bottom:1px solid var(--grid)}
th{color:var(--ink2);font-weight:600;cursor:default}
td:first-child,th:first-child{text-align:left}
tbody tr{cursor:pointer}
tbody tr:hover{background:#f2f1ee}
tbody tr.sel{background:#fbe8de}
.stack{display:inline-flex;width:140px;height:10px;border-radius:2px;overflow:hidden;vertical-align:middle}
.stack i{display:block;height:100%%}
.legend{color:var(--ink2);font-size:11px;margin:6px 0 12px}
.legend i{display:inline-block;width:10px;height:10px;border-radius:2px;margin:0 4px 0 12px;vertical-align:-1px}
.note{color:var(--ink2);font-size:11px;margin-top:6px}
</style>
</head>
<body>
<h1 id="title"></h1>
<div class="sub" id="summary"></div>
<h2>Disk timelines</h2>
<div id="disks"></div>
<h2>Service pools</h2>
<div id="pools" class="pool"></div>
<h2>Time series</h2>
<div id="series"></div>
<h2 id="reqhead">Requests</h2>
<div class="legend">critical path:
<i style="background:var(--blue)"></i>disk <i style="background:var(--orange)"></i>retry
<i style="background:var(--aqua)"></i>service <i style="background:var(--grid)"></i>queue
— click a row to highlight its window on the timelines</div>
<table id="reqs"><thead><tr>
<th>server</th><th>id</th><th>start (ms)</th><th>latency (ms)</th>
<th>disk</th><th>retry</th><th>service</th><th>queue</th><th>decomposition</th>
</tr></thead><tbody></tbody></table>
<div class="note" id="reqnote"></div>
<script id="data" type="application/json">%s</script>
<script>
"use strict";
const D = JSON.parse(document.getElementById("data").textContent);
const H = D.horizon_ms > 0 ? D.horizon_ms : 1;
const fmt = (v, d) => v.toLocaleString("en-US", {minimumFractionDigits: d, maximumFractionDigits: d});
document.getElementById("title").textContent = D.title;
document.getElementById("summary").textContent =
  D.events.toLocaleString("en-US") + " events over " + fmt(H, 2) + " ms — mean disk utilization " +
  fmt(D.mean_disk_util * 100, 0) + "%% — " + D.total_requests.toLocaleString("en-US") + " requests" +
  (D.latency.n ? ", latency p50/p90/p99 " + fmt((D.latency.p50 || 0) * 1e3, 2) + "/" +
   fmt((D.latency.p90 || 0) * 1e3, 2) + "/" + fmt((D.latency.p99 || 0) * 1e3, 2) + " ms" : "");

function timelines(el, rows) {
  for (const r of rows) {
    const div = document.createElement("div");
    div.className = "row";
    const lbl = document.createElement("span");
    lbl.className = "rl"; lbl.textContent = r.name; lbl.title = r.name;
    const tr = document.createElement("span");
    tr.className = "track";
    for (const sp of r.spans) {
      const s = document.createElement("i");
      s.className = "span";
      s.style.left = (sp.s / H * 100) + "%%";
      s.style.width = Math.max((sp.e - sp.s) / H * 100, 0.05) + "%%";
      tr.appendChild(s);
    }
    const band = document.createElement("i");
    band.className = "band"; tr.appendChild(band);
    const u = document.createElement("span");
    u.className = "ru"; u.textContent = fmt(r.util * 100, 0) + "%%";
    div.append(lbl, tr, u);
    el.appendChild(div);
  }
}
timelines(document.getElementById("disks"), D.disks);
timelines(document.getElementById("pools"), D.pools);

const palette = ["#2a78d6", "#eb6834", "#1baf7a", "#eda100", "#e87ba4", "#008300"];
function chart(s, color) {
  const W = 1040, Hc = 90, L = 46, B = 14;
  const max = Math.max(...s.y, 1e-12);
  const pts = s.y.map((v, i) =>
    (L + (i + 0.5) * s.bin_ms / H * (W - L - 4)).toFixed(1) + "," +
    (4 + (1 - v / max) * (Hc - B - 8)).toFixed(1)).join(" ");
  const div = document.createElement("div");
  div.innerHTML = '<svg viewBox="0 0 ' + W + ' ' + Hc + '" width="100%%">' +
    '<line x1="' + L + '" y1="' + (Hc - B) + '" x2="' + (W - 4) + '" y2="' + (Hc - B) + '" stroke="#e5e4e0"/>' +
    '<text x="' + (L - 6) + '" y="10" text-anchor="end" font-size="9" fill="#52514e">' + fmt(max, 2) + "</text>" +
    '<text x="' + (L - 6) + '" y="' + (Hc - B) + '" text-anchor="end" font-size="9" fill="#52514e">0</text>' +
    '<text x="' + (W - 4) + '" y="' + (Hc - 2) + '" text-anchor="end" font-size="9" fill="#52514e">' +
    s.name + " — " + fmt(H, 1) + " ms</text>" +
    '<polyline fill="none" stroke="' + color + '" stroke-width="1.5" points="' + pts + '"/></svg>';
  document.getElementById("series").appendChild(div);
}
D.series.forEach((s, i) => chart(s, palette[i %% palette.length]));

document.getElementById("reqhead").textContent =
  "Requests — " + D.requests.length.toLocaleString("en-US") +
  (D.total_requests > D.requests.length ? " slowest of " + D.total_requests.toLocaleString("en-US") : "") +
  " (by latency)";
document.getElementById("reqnote").textContent =
  D.requests.length ? "decomposition: what the system was doing during each request's window" : "no requests traced";
const tbody = document.querySelector("#reqs tbody");
const colors = {disk_ms: "var(--blue)", retry_ms: "var(--orange)", service_ms: "var(--aqua)", queue_ms: "var(--grid)"};
for (const r of D.requests) {
  const tr = document.createElement("tr");
  const stack = Object.keys(colors).map(k => {
    const f = r.latency_ms > 0 ? r[k] / r.latency_ms * 100 : 0;
    return '<i style="width:' + f.toFixed(2) + '%%;background:' + colors[k] + '"></i>';
  }).join("");
  tr.innerHTML = "<td>" + r.node + "</td><td>" + r.id + "</td><td>" + fmt(r.start_ms, 3) +
    "</td><td>" + fmt(r.latency_ms, 3) + "</td><td>" + fmt(r.disk_ms, 3) + "</td><td>" +
    fmt(r.retry_ms, 3) + "</td><td>" + fmt(r.service_ms, 3) + "</td><td>" + fmt(r.queue_ms, 3) +
    '</td><td><span class="stack">' + stack + "</span></td>";
  tr.addEventListener("click", () => {
    const was = tr.classList.contains("sel");
    tbody.querySelectorAll("tr.sel").forEach(x => x.classList.remove("sel"));
    document.querySelectorAll(".band").forEach(b => b.style.display = "none");
    if (was) return;
    tr.classList.add("sel");
    document.querySelectorAll(".band").forEach(b => {
      b.style.left = (r.start_ms / H * 100) + "%%";
      b.style.width = Math.max(r.latency_ms / H * 100, 0.1) + "%%";
      b.style.display = "block";
    });
  });
  tbody.appendChild(tr);
}
</script>
</body>
</html>
`
