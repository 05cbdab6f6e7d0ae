package serve

// golden_test.go pins the serving layer's headline promise with the real
// simulator: POST /v1/sweeps for the degrade-smoke and fig5-paper
// presets returns bytes identical to the cmd/figures artifacts for the
// same spec and options — text table to its stdout, JSON/CSV/SVG to its
// -json/-csv/-plot files — on the cold path AND on the cache-hit path.
// The expected bytes are built here exactly the way cmd/figures builds
// them (same library calls, same format strings), so a drift in either
// the serving pipeline or the render formats fails this test.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"ddio/internal/exp"
	"ddio/internal/plot"
)

func TestServedSweepsMatchFiguresArtifacts(t *testing.T) {
	presets := []struct {
		name    string
		body    string
		degrade bool // has a faults template, so timesvg exists
	}{
		// degrade-smoke carries its own trials/filemb overrides; the
		// request options mirror the figures CLI flag defaults.
		{"degrade-smoke", `{"preset":"degrade-smoke"}`, true},
		// fig5-paper at -trials 1 -filemb 1 keeps the paper figure's
		// full grid while staying cheap.
		{"fig5-paper", `{"preset":"fig5-paper","trials":1,"filemb":1}`, false},
		// wl-smoke drives the workload layer (skewed open-arrival
		// streams, swept over the wlrate axis) through the live handler.
		{"wl-smoke", `{"preset":"wl-smoke"}`, false},
	}

	s := New(Config{QueueDepth: 4, Concurrency: 1})
	for _, p := range presets {
		t.Run(p.name, func(t *testing.T) {
			spec, ok := exp.LookupPreset(p.name)
			if !ok {
				t.Fatalf("preset %q missing", p.name)
			}
			// The options cmd/figures would build for
			//   figures -sweep <name> [-trials 1 -filemb 1]
			opts := exp.Options{Trials: 5, FileBytes: 10 * exp.MiB, Seed: 42, Verify: true}
			if p.name == "fig5-paper" {
				opts.Trials, opts.FileBytes = 1, exp.MiB
			}
			res, err := spec.RunFull(opts)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{
				// printTable in cmd/figures: Println(Format) + Printf(max cv).
				"text": res.Table.Format() + "\n" + fmt.Sprintf("max cv %.3f\n\n", res.Table.MaxCV()),
				"json": string(wantJSON),      // <name>.json
				"csv":  res.LongCSV(),         // <name>-long.csv
				"svg":  plot.SweepFigure(res), // <name>.svg
			}
			// <name>-time.svg exists for degradation sweeps (completion
			// time) and workload sweeps (request-latency percentiles).
			if svg := plot.SweepTimeFigure(res); svg != "" {
				want["timesvg"] = svg
			} else if p.degrade {
				t.Fatal("degradation sweep produced no time figure")
			}
			if p.name == "wl-smoke" && want["timesvg"] == "" {
				t.Fatal("workload sweep produced no latency figure")
			}

			cold := true
			for _, format := range []string{"text", "json", "csv", "svg", "timesvg"} {
				wantBody, ok := want[format]
				if !ok {
					continue
				}
				rr := do(t, s, "POST", "/v1/sweeps?format="+format, p.body)
				if rr.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", format, rr.Code, rr.Body.String())
				}
				if rr.Body.String() != wantBody {
					t.Fatalf("%s: served bytes differ from the figures artifact\nserved %d bytes, want %d",
						format, rr.Body.Len(), len(wantBody))
				}
				hits, cells := rr.Header().Get("X-Cache-Hits"), rr.Header().Get("X-Cells")
				if cold && hits != "0" {
					t.Fatalf("first request reported %s cache hits", hits)
				}
				if !cold && hits != cells {
					t.Fatalf("warm request: %s hits of %s cells", hits, cells)
				}
				cold = false
			}

			// And the cold format repeated is still byte-identical — the
			// cache-hit path reruns the whole render pipeline, not a
			// stored response.
			rr := do(t, s, "POST", "/v1/sweeps?format=text", p.body)
			if rr.Body.String() != want["text"] {
				t.Fatal("cache-hit text differs from cold text")
			}
		})
	}

	// The entire test simulated each distinct cell exactly once.
	st := s.StatsSnapshot()
	if st.Cache.Misses < st.CellsSimulated {
		t.Fatalf("inconsistent counters: %+v", st)
	}
}

// TestServedWorkloadRun drives one inline-workload run through the real
// simulator via POST /v1/runs: the declared streams execute, verify
// clean, and report positive throughput.
func TestServedWorkloadRun(t *testing.T) {
	s := New(Config{QueueDepth: 2, Concurrency: 1})
	body := `{"method":"ddio-sort","pattern":"rb","cps":4,"iops":4,"disks":4,"filemb":1,
		"workload":{"name":"w","phases":[{"pattern":"skew","requests":32,"alpha":1.2,
		"read_fraction":0.8,"arrival":"poisson","rate_per_sec":1000}]}}`
	rr := do(t, s, "POST", "/v1/runs", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	var sum RunSummary
	if err := json.Unmarshal(rr.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.MBps <= 0 || sum.VerifyErrors != 0 {
		t.Fatalf("workload run summary: %+v", sum)
	}
	// A run without the workload must occupy a different cache cell.
	plain := do(t, s, "POST", "/v1/runs", `{"method":"ddio-sort","pattern":"rb","cps":4,"iops":4,"disks":4,"filemb":1}`)
	var plainSum RunSummary
	if err := json.Unmarshal(plain.Body.Bytes(), &plainSum); err != nil {
		t.Fatal(err)
	}
	if plainSum.CellKey == sum.CellKey {
		t.Fatal("workload and plain runs share a cell key")
	}
}

// TestVerifyFailureCounter pins ddiosimd_verify_failures_total on the
// real simulator. The failing run is a read-only stream with overlapping
// requests under two-phase I/O with a lossy fault plan: at a 50% disk
// error rate and one retry some disk reads are lost, so the run is
// served, reports its verification errors, and counts once. The same
// workload under disk-directed I/O without faults verifies clean and
// does not count.
func TestVerifyFailureCounter(t *testing.T) {
	s := New(Config{QueueDepth: 2, Concurrency: 1})
	run := func(method, faults string) RunSummary {
		t.Helper()
		body := `{"method":"` + method + `","pattern":"ra","cps":4,"iops":2,"disks":2,"filemb":1,"seed":1,` + faults + `
			"workload":{"name":"p","phases":[{"pattern":"uniform","requests":256,"record_sizes":[1000,8192]}]}}`
		rr := do(t, s, "POST", "/v1/runs", body)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", method, rr.Code, rr.Body.String())
		}
		var sum RunSummary
		if err := json.Unmarshal(rr.Body.Bytes(), &sum); err != nil {
			t.Fatal(err)
		}
		return sum
	}
	failures := func() (int64, string) {
		var st Stats
		if err := json.Unmarshal(do(t, s, "GET", "/v1/stats", "").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.VerifyFailures, do(t, s, "GET", "/metrics", "").Body.String()
	}

	if sum := run("2phase", `"faults":{"disk_error_rate":0.5,"retry_limit":1},`); sum.VerifyErrors == 0 {
		t.Fatalf("lossy two-phase run verified clean: %+v", sum)
	}
	if n, m := failures(); n != 1 || !strings.Contains(m, "ddiosimd_verify_failures_total 1\n") {
		t.Fatalf("after the failing run: stats verify_failures %d, metrics:\n%s", n, m)
	}
	if sum := run("ddio", ""); sum.VerifyErrors != 0 {
		t.Fatalf("DDIO run failed verification: %+v", sum)
	}
	if n, m := failures(); n != 1 || !strings.Contains(m, "ddiosimd_verify_failures_total 1\n") {
		t.Fatalf("a passing run moved the counter: stats verify_failures %d, metrics:\n%s", n, m)
	}
}

// TestServedTraceHTMLMatchesViewer pins the served trace viewer: POST
// /v1/runs?trace=html returns bytes identical to what ddiosim
// -tracehtml writes for the same configuration (exp.TracedRun +
// Recorder.WriteHTML with the shared exp.TraceTitle), with the HTML
// content type.
func TestServedTraceHTMLMatchesViewer(t *testing.T) {
	s := New(Config{QueueDepth: 2, Concurrency: 1})
	body := `{"method":"ddio","pattern":"rb","cps":2,"iops":2,"disks":2,"filemb":1,"seed":11}`

	q, err := ParseRunRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := q.Config()
	if err != nil {
		t.Fatal(err)
	}
	_, rec, err := exp.TracedRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := rec.WriteHTML(&want, exp.TraceTitle(cfg)); err != nil {
		t.Fatal(err)
	}

	rr := do(t, s, "POST", "/v1/runs?trace=html", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if rr.Body.String() != want.String() {
		t.Fatalf("served viewer differs from the CLI page: served %d bytes, want %d",
			rr.Body.Len(), want.Len())
	}
	// And the page is reproducible: a second served request is
	// byte-identical (traced runs bypass the cell cache, so this
	// re-simulates from the same seed).
	again := do(t, s, "POST", "/v1/runs?trace=html", body)
	if again.Body.String() != rr.Body.String() {
		t.Fatal("served viewer is not deterministic across requests")
	}
}
