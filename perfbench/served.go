package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"ddio/internal/exp"
	"ddio/internal/plot"
	"ddio/internal/serve"
	"ddio/internal/sim"
	"ddio/internal/stats"
	"ddio/internal/workload"
)

// The served mix: two closed-loop clients against one in-process daemon
// (concurrency 2, one runner worker per sweep, so at most two
// simulations run at once). Each client owns its request keys — its own
// sweep and run seeds — so which request of a key is the cache miss is
// fixed by the generated order, not by scheduling.
const (
	servedClients = 2
	traceSeeds    = 5 // traced requests per client per traced method
	runRepeats    = 5 // cache-hit repeats of each workload run
	replayEvery   = 4 // the traced run splits every fourth served cell by phase
)

var (
	servedPresets = []string{"fig5-paper", "fig6-paper", "fig7-paper", "fig8-paper", "wl-rate", "degrade-fault"}
	servedFormats = []string{"text", "json", "csv", "tablecsv", "svg"}
	servedMethods = []string{"tc", "ddio", "ddio-sort", "2phase"}
	tracedMethods = []string{"tc", "ddio-sort"}
	tinyPresets   = []string{"degrade-smoke", "wl-smoke"}
)

// request is one HTTP request of the mix.
type request struct {
	client int
	key    string // cache identity, unique to the client
	class  string // "miss" (first request of its key), "hit" or "trace"
	path   string
	body   []byte
	format string // sweep rendering; "" for runs
}

// mixedWorkload is the /v1/runs request stream: zipf-skewed, read-mostly
// and open Poisson, with record sizes below, at and above the block
// size — the mixed sub-block streams where storage models go wrong.
func mixedWorkload(tiny bool) *workload.Spec {
	frac := 0.7
	n := 256
	if tiny {
		n = 32
	}
	return &workload.Spec{Name: "mixed", Phases: []workload.Phase{{
		Pattern:      workload.PatternZipf,
		Requests:     n,
		Alpha:        1.2,
		RecordSizes:  []int{1000, 8192, 65536},
		ReadFraction: &frac,
		Arrival:      "poisson",
		RatePerSec:   200,
	}}}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request structs are marshaled here
	}
	return b
}

// genRequests builds each client's request list from the seed: every
// sweep cold and then re-requested in every format, every workload run
// cold and then repeated, and traced runs that bypass the cache. The
// seed picks the sweep, run and trace seeds. The mix and the order are
// the same for every seed: each kind of request is spread evenly through
// a client's list, and the second client starts half way through the
// same order, so which simulations overlap does not change with the seed.
func genRequests(seed int64, tiny bool) [][]request {
	presets, seeds, traceRecord := servedPresets, traceSeeds, 8
	if tiny {
		presets, seeds, traceRecord = tinyPresets, 1, 8192
	}
	lists := make([][]request, servedClients)
	for c := range lists {
		own := seed*int64(servedClients) + int64(c) // the client's own keys
		var sweeps, runs, traced []request
		for _, name := range presets {
			spec, _ := exp.LookupPreset(name)
			formats := servedFormats
			if spec.Faults != nil || spec.Workload != nil {
				formats = append(formats[:len(formats):len(formats)], "timesvg")
			}
			body := mustJSON(serve.SweepRequest{Preset: name, Trials: 1, FileMB: 1, Seed: &own})
			key := "sweep " + name
			for _, f := range append([]string{"text"}, formats...) { // cold, then every format cached
				sweeps = append(sweeps, request{key: key, path: "/v1/sweeps?format=" + f, body: body, format: f})
			}
		}
		for _, m := range servedMethods {
			body := mustJSON(serve.RunRequest{Method: m, Pattern: "rb", FileMB: 1, Seed: &own, Workload: mixedWorkload(tiny)})
			for k := 0; k <= runRepeats; k++ { // cold, then repeated
				runs = append(runs, request{key: "run " + m, path: "/v1/runs", body: body})
			}
		}
		for k := 0; k < seeds; k++ {
			for _, m := range tracedMethods {
				s := own*100 + int64(k)
				body := mustJSON(serve.RunRequest{Method: m, Pattern: "rc", FileMB: 1, Record: traceRecord, Seed: &s})
				traced = append(traced, request{key: fmt.Sprintf("trace %s %d", m, s), class: "trace",
					path: "/v1/runs?trace=html", body: body})
			}
		}
		reqs := spread(sweeps, runs, traced)
		reqs = append(reqs[len(reqs)*c/servedClients:], reqs[:len(reqs)*c/servedClients]...)
		seen := map[string]bool{}
		for i := range reqs {
			reqs[i].client = c
			if reqs[i].class != "trace" { // the rotation may cut a key's requests in two: label after it
				reqs[i].class = "hit"
				if !seen[reqs[i].key] {
					reqs[i].class, seen[reqs[i].key] = "miss", true
				}
			}
		}
		lists[c] = reqs
	}
	return lists
}

// spread merges the queues so that each one's requests sit evenly
// through the result, keeping every queue's own order.
func spread(queues ...[]request) []request {
	type slot struct {
		pos float64
		q   request
	}
	var slots []slot
	for _, queue := range queues {
		for i, q := range queue {
			slots = append(slots, slot{(float64(i) + 0.5) / float64(len(queue)), q})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].pos < slots[j].pos })
	out := make([]request, len(slots))
	for i, s := range slots {
		out[i] = s.q
	}
	return out
}

// daemon is an in-process ddiosimd on a loopback listener.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:  serve.New(serve.Config{Concurrency: 2, Workers: 1}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	d.hs = &http.Server{Handler: d.srv}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the daemon down and waits for its serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// response is one completed request.
type response struct {
	req    request
	status int
	body   []byte
	header http.Header
	ms     float64
	err    error
}

func post(client *http.Client, url string, q request) response {
	t0 := time.Now()
	resp, err := client.Post(url+q.path, "application/json", bytes.NewReader(q.body))
	r := response{req: q, err: err}
	if err == nil {
		r.status, r.header = resp.StatusCode, resp.Header
		r.body, r.err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.ms = ms(time.Since(t0))
	return r
}

// session drives one batch: each client sends its list closed-loop, the
// next request only after the previous reply.
func session(d *daemon, lists [][]request) ([]response, time.Duration) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: servedClients}}
	defer client.CloseIdleConnections()
	out := make([][]response, len(lists))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, reqs := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range reqs {
				out[c] = append(out[c], post(client, d.url, q))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	var all []response
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all, wall
}

// servedSetup generates the requests, resolves every workload they carry,
// starts a daemon and sends one untimed warm-up request whose key no
// timed request shares.
func servedSetup(o opts) ([][]request, *daemon, error) {
	lists := genRequests(o.seed, o.tiny)
	for _, reqs := range lists {
		for _, q := range reqs {
			if q.format == "" {
				rq, err := serve.ParseRunRequest(q.body)
				if err != nil {
					return nil, nil, err
				}
				if _, err := resolveWorkload(rq); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	d, err := startDaemon()
	if err != nil {
		return nil, nil, err
	}
	warm := int64(-1)
	body := mustJSON(serve.RunRequest{Method: "ddio", Pattern: "rb", FileMB: 1, Seed: &warm})
	if r := post(http.DefaultClient, d.url, request{path: "/v1/runs", body: body}); r.err != nil || r.status != http.StatusOK {
		d.stop()
		return nil, nil, fmt.Errorf("warm-up request: status %d, %v", r.status, r.err)
	}
	http.DefaultClient.CloseIdleConnections()
	return lists, d, nil
}

// resolveWorkload resolves a run request's workload against its machine
// shape, as the run itself will, and returns the configuration.
func resolveWorkload(rq *serve.RunRequest) (exp.Config, error) {
	cfg, err := rq.Config()
	if err != nil || !cfg.Workload.Enabled() {
		return cfg, err
	}
	shape := workload.Shape{NCP: cfg.NCP, FileBytes: cfg.FileBytes, BlockSize: cfg.BlockSize, RecordSize: cfg.RecordSize}
	_, err = cfg.Workload.Resolve(shape, sim.NewRand(cfg.Seed))
	return cfg, err
}

// runSummary is the part of a /v1/runs reply the checks read.
type runSummary struct {
	Events       int64   `json:"events"`
	VerifyErrors int     `json:"verify_errors"`
	MBps         float64 `json:"mbps"`
	Cached       bool    `json:"cached"`
}

// checkResponses counts failures — errors, non-200 replies, runs with
// verification errors — and checks what can be checked from the replies
// alone: a sweep's formats agree with its JSON rendering, cached runs
// repeat their cold reply, traced pages are non-empty.
func checkResponses(rep *report, resps []response) {
	sweepJSON := map[string][]byte{}
	for _, r := range resps {
		if r.status == http.StatusOK && r.req.format == "json" {
			sweepJSON[fmt.Sprint(r.req.client, r.req.key)] = r.body
		}
	}
	cold := map[string]runSummary{}
	for _, r := range resps {
		if r.req.format == "" && r.req.class != "trace" && r.status == http.StatusOK {
			var s runSummary
			if json.Unmarshal(r.body, &s) == nil && !s.Cached {
				cold[fmt.Sprint(r.req.client, r.req.key)] = s
			}
		}
	}
	for _, r := range resps {
		rep.attempted++
		q := r.req
		id := fmt.Sprint(q.client, q.key)
		if r.err != nil || r.status != http.StatusOK {
			rep.failed++
			fmt.Printf("FAIL served client=%d %s class=%s path=%s status=%d err=%v: %.200s\n",
				q.client, describe(q), q.class, q.path, r.status, r.err, r.body)
			continue
		}
		switch {
		case q.format != "":
			cells, _ := strconv.Atoi(r.header.Get("X-Cells"))
			hits, _ := strconv.Atoi(r.header.Get("X-Cache-Hits"))
			rep.check(cells > 0 && (hits == cells) == (q.class == "hit"),
				"sweep %s (%s, format %s): %d of %d cells from the cache", id, q.class, q.format, hits, cells)
			res, err := exp.ParseSweepResult(sweepJSON[id])
			rep.check(err == nil, "sweep %s: JSON rendering does not parse: %v", id, err)
			if err == nil {
				want, _, err := render(res, q.format)
				rep.check(err == nil && bytes.Equal(want, r.body), "sweep %s format %s disagrees with its JSON rendering", id, q.format)
			}
		case q.class == "trace":
			n, _ := strconv.Atoi(r.header.Get("X-Trace-Events"))
			rep.check(n > 0 && bytes.HasPrefix(r.body, []byte("<!DOCTYPE html>")), "traced %s: empty trace page", id)
		default:
			var s runSummary
			err := json.Unmarshal(r.body, &s)
			rep.check(err == nil && s.Events > 0, "run %s: bad summary: %v", id, err)
			c, ok := cold[id]
			rep.check(ok && s.Cached == (q.class == "hit") && s.Events == c.Events && s.VerifyErrors == c.VerifyErrors,
				"run %s (%s): cached=%v, events %d vs cold %d", id, q.class, s.Cached, s.Events, c.Events)
			if s.VerifyErrors > 0 {
				rep.failed++
				fmt.Printf("FAIL served client=%d %s class=%s verify_errors=%d\n", q.client, describe(q), q.class, s.VerifyErrors)
			}
		}
	}
}

// describe names what a request simulates, for its FAIL line: the sweep
// preset with its methods and patterns, or the run's method and pattern;
// then the seed and the workload.
func describe(q request) string {
	if q.format != "" {
		var sq serve.SweepRequest
		json.Unmarshal(q.body, &sq)
		spec, _ := exp.LookupPreset(sq.Preset)
		return fmt.Sprintf("sweep preset=%s methods=%v patterns=%v seed=%d workload=%s",
			sq.Preset, spec.Methods, spec.Patterns, *sq.Seed, spec.Workload.Summary())
	}
	var rq serve.RunRequest
	json.Unmarshal(q.body, &rq)
	return fmt.Sprintf("run method=%s pattern=%s record=%d seed=%d workload=%s",
		rq.Method, rq.Pattern, rq.Record, *rq.Seed, rq.Workload.Summary())
}

// render renders a sweep result the way the daemon documents each
// format: byte-identical to the figures CLI artifacts.
func render(res *exp.SweepResult, format string) ([]byte, string, error) {
	switch format {
	case "text":
		t := res.Table
		return []byte(t.Format() + "\n" + fmt.Sprintf("max cv %.3f\n\n", t.MaxCV())), "render.text_ms", nil
	case "json":
		b, err := res.JSON()
		return b, "render.json_ms", err
	case "csv":
		return []byte(res.LongCSV()), "render.csv_ms", nil
	case "tablecsv":
		return []byte(res.Table.CSV()), "render.csv_ms", nil
	case "svg":
		return []byte(plot.SweepFigure(res)), "plot.svg_ms", nil
	case "timesvg":
		return []byte(plot.SweepTimeFigure(res)), "plot.svg_ms", nil
	}
	return nil, "", fmt.Errorf("unknown format %q", format)
}

// latencies splits request latencies by class.
func latencies(resps []response) (all []float64, byClass map[string][]float64) {
	byClass = map[string][]float64{}
	for _, r := range resps {
		all = append(all, r.ms)
		byClass[r.req.class] = append(byClass[r.req.class], r.ms)
	}
	return all, byClass
}

// runServed measures the served mix with tracing off: repeated set-ups,
// then whole batches, each against a fresh daemon so every batch starts
// with a cold cache, until the run time is spent.
func runServed(o opts) (*report, error) {
	rep := newReport()
	var lists [][]request
	var d *daemon
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			runtime.GC() // start from a collected heap, as the first set-up does
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if lists, d, err = servedSetup(o); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups))
	fmt.Printf("%s: setup_s samples %.4f\n", "served-mix", setups)

	var walls, opMS []float64
	start := time.Now()
	for {
		resps, wall := session(d, lists)
		if err := d.stop(); err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		all, byClass := latencies(resps)
		opMS = append(opMS, all...)
		if len(walls) == 1 { // replies are deterministic: one check stands for every batch
			checkResponses(rep, resps)
			fmt.Printf("served-mix: %d requests (miss %d, hit %d, trace %d)\n", len(resps),
				len(byClass["miss"]), len(byClass["hit"]), len(byClass["trace"]))
		}
		if !moreBatches(start, walls, o.seconds) {
			break
		}
		var err error
		if d, err = startDaemon(); err != nil {
			return nil, err
		}
	}
	rep.set("wall_s", median(walls))
	rep.set("op_ms.p50", stats.Quantile(opMS, 0.5))
	rep.set("op_ms.p90", stats.Quantile(opMS, 0.9))
	rep.set("peak_rss_mb", peakRSSMB())
	fmt.Printf("served-mix: %d batches; wall_s %v; request ms p50 %.2f p90 %.2f (n=%d)\n",
		len(walls), walls, rep.values["op_ms.p50"], rep.values["op_ms.p90"], len(opMS))
	return rep, nil
}

// traceServed is the served mix's traced run: one timed batch for the
// class latencies and server counters, then every distinct request
// replayed in process through the request parsers, SweepSpec.RunFull,
// the renderers, workload resolution, exp.TracedRun and the trace
// viewer, checking each served body against the replay; finally every
// fourth simulated cell, when it is classic, goes through the
// phase-split replay.
func traceServed(o opts) (*report, error) {
	rep := newReport()
	lists, d, err := servedSetup(o)
	if err != nil {
		return nil, err
	}
	before := d.srv.StatsSnapshot() // counts the warm-up request
	resps, _ := session(d, lists)
	st := d.srv.StatsSnapshot()
	if err := d.stop(); err != nil {
		return nil, err
	}
	checkResponses(rep, resps)
	_, byClass := latencies(resps)
	rep.set("miss_ms.p50", stats.Quantile(byClass["miss"], 0.5))
	rep.set("hit_ms.p50", stats.Quantile(byClass["hit"], 0.5))
	rep.set("hit_ms.p90", stats.Quantile(byClass["hit"], 0.9))
	rep.set("trace_ms.p50", stats.Quantile(byClass["trace"], 0.5))
	rep.set("serve.cells_simulated", float64(st.CellsSimulated-before.CellsSimulated))
	rep.set("serve.rejected", float64(st.JobsRejected-before.JobsRejected))
	hits, misses := st.Cache.Hits-before.Cache.Hits, st.Cache.Misses-before.Cache.Misses
	if hits+misses > 0 {
		rep.set("serve.hit_ratio", float64(hits)/float64(hits+misses))
	}

	// Capture every cell the replay simulates, with its exp.Run time.
	var cells []*exp.Result
	var runTimes []time.Duration
	runCell := func(cfg exp.Config) (*exp.Result, error) {
		t0 := time.Now()
		res, err := exp.Run(cfg)
		if err == nil {
			cells = append(cells, res)
			runTimes = append(runTimes, time.Since(t0))
		}
		return res, err
	}

	var parse, sweep, resolve, html phase
	var traceOverhead time.Duration
	var traceEvents int
	renders := map[string]*phase{}
	renderMS := map[string]float64{} // client+key+format -> render time
	done := map[string]bool{}
	for _, r := range resps {
		q := r.req
		id := fmt.Sprint(q.client, q.key)
		if r.status != http.StatusOK {
			continue
		}
		switch {
		case q.format != "":
			if done[id] {
				break
			}
			done[id] = true
			var spec *exp.SweepSpec
			var sq *serve.SweepRequest
			parse.span(func() {
				if sq, err = serve.ParseSweepRequest(q.body); err == nil {
					spec, err = sq.ResolveSpec()
				}
			})
			if err != nil {
				return nil, err
			}
			opt := exp.Options{Trials: sq.Trials, FileBytes: sq.FileMB * exp.MiB, Seed: *sq.Seed, Verify: true, Workers: 1, RunCell: runCell}
			var res *exp.SweepResult
			sweep.span(func() { res, err = spec.RunFull(opt) })
			if err != nil {
				rep.check(false, "in-process sweep %s: %v", id, err)
				break
			}
			for _, f := range append(append([]string(nil), servedFormats...), "timesvg") {
				var body []byte
				var layer string
				var p phase
				p.span(func() { body, layer, err = render(res, f) })
				if f == "timesvg" && len(body) == 0 {
					continue // not a degradation or workload sweep
				}
				if renders[layer] == nil {
					renders[layer] = &phase{}
				}
				renders[layer].dur += p.dur
				renderMS[id+" "+f] = p.ms()
				for _, s := range resps {
					if s.req.client == q.client && s.req.key == q.key && s.req.format == f && s.status == http.StatusOK {
						rep.check(err == nil && bytes.Equal(body, s.body), "served %s format %s differs from the in-process rendering", id, f)
					}
				}
			}
		case q.class == "trace":
			var rq *serve.RunRequest
			var cfg exp.Config
			parse.span(func() {
				if rq, err = serve.ParseRunRequest(q.body); err == nil {
					cfg, err = rq.Config()
				}
			})
			if err != nil {
				return nil, err
			}
			plain, err := runCell(cfg)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			res, rec, err := exp.TracedRun(cfg)
			traceOverhead += time.Since(t0) - runTimes[len(runTimes)-1]
			if err != nil {
				return nil, err
			}
			rep.check(res.Events == plain.Events, "traced %s fired %d events, untraced %d", id, res.Events, plain.Events)
			var page bytes.Buffer
			html.span(func() { err = rec.WriteHTML(&page, exp.TraceTitle(cfg)) })
			rep.check(err == nil && bytes.Equal(page.Bytes(), r.body), "served trace page %s differs from the in-process page", id)
			traceEvents += rec.Len()
		default:
			if done[id] {
				break
			}
			done[id] = true
			var rq *serve.RunRequest
			parse.span(func() { rq, err = serve.ParseRunRequest(q.body) })
			if err != nil {
				return nil, err
			}
			var cfg exp.Config
			resolve.span(func() { cfg, err = resolveWorkload(rq) })
			if err != nil {
				return nil, err
			}
			res, err := runCell(cfg)
			if err != nil {
				return nil, err
			}
			var s runSummary
			json.Unmarshal(r.body, &s)
			rep.check(s.Events == res.Events && s.VerifyErrors == res.VerifyErrors && s.MBps == res.MBps,
				"served run %s disagrees with the in-process run", id)
		}
	}
	rep.set("serve.parse_ms", parse.ms())
	rep.set("exp.sweep_ms", sweep.ms())
	rep.set("workload.resolve_ms", resolve.ms())
	rep.set("trace.record_ms", ms(traceOverhead))
	rep.set("trace.html_ms", html.ms())
	rep.set("trace.events", float64(traceEvents))
	for _, name := range []string{"render.text_ms", "render.json_ms", "render.csv_ms", "plot.svg_ms"} {
		if p := renders[name]; p != nil {
			rep.set(name, p.ms())
		}
	}
	var overhead []float64
	for _, r := range resps {
		if r.req.class == "hit" && r.req.format != "" {
			overhead = append(overhead, r.ms-renderMS[fmt.Sprint(r.req.client, r.req.key)+" "+r.req.format])
		}
	}
	rep.set("serve.hit_overhead_ms", median(overhead))

	// Phase-split replay of every fourth classic cell the replay
	// simulated: enough to split the served cells by layer while keeping
	// the traced run well inside its time limit.
	var l layers
	var runTotal time.Duration
	for i, res := range cells {
		if !replayable(res.Config) || i%replayEvery != 0 {
			continue
		}
		runTotal += runTimes[i]
		got, err := replayCell(res.Config, &l)
		rep.check(err == nil && got == outcomeOf(res), "replay of %s: got %+v (err %v), exp.Run gave %+v",
			cellLabel(res.Config), got, err, outcomeOf(res))
	}
	rep.setLayers(&l, runTotal)
	rep.setCounts(cells)
	fmt.Printf("served-mix traced: %d requests, %d cells simulated in process (%d replayed by phase)\n",
		len(resps), len(cells), l.cells)
	return rep, nil
}

// moreBatches reports whether another batch, as long as the slowest so
// far, still ends within the run time.
func moreBatches(start time.Time, walls []float64, seconds time.Duration) bool {
	longest := 0.0
	for _, w := range walls {
		longest = max(longest, w)
	}
	return time.Since(start)+time.Duration(longest*float64(time.Second)) <= seconds
}
