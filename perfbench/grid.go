package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ddio/internal/exp"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/plot"
	"ddio/internal/stats"
)

// gridWorkload is one Figure 3/4 grid: every pattern under every method
// on both layouts, at one record size and file size.
type gridWorkload struct {
	record    int
	fileBytes int64
	patterns  []string
}

var (
	gridMethods = []exp.Method{exp.TraditionalCaching, exp.DiskDirected, exp.DiskDirectedSort, exp.TwoPhase}
	gridLayouts = []pfs.LayoutKind{pfs.RandomBlocks, pfs.Contiguous}
)

// gridFor returns the grid of the named workload at the given size.
func gridFor(name string, tiny bool) gridWorkload {
	g := gridWorkload{record: 8192, fileBytes: 10 * exp.MiB, patterns: hpf.AllPatterns()}
	if name == "grid-8b" {
		g.record, g.fileBytes = 8, exp.MiB/2
	}
	if tiny {
		g.fileBytes = 256 << 10
		if g.record == 8 {
			g.fileBytes = 8 << 10
		}
		g.patterns = []string{"rb", "wc"}
	}
	return g
}

// configs expands the grid: layouts outermost, then patterns, then
// methods.
func (g gridWorkload) configs(seed int64) []exp.Config {
	var cfgs []exp.Config
	for _, layout := range gridLayouts {
		for _, pat := range g.patterns {
			for _, m := range gridMethods {
				cfgs = append(cfgs, g.cell(seed, layout, pat, m))
			}
		}
	}
	return cfgs
}

// cell is the grid's configuration for one layout, pattern and method.
// Every cell takes the workload seed and verifies every byte.
func (g gridWorkload) cell(seed int64, layout pfs.LayoutKind, pattern string, m exp.Method) exp.Config {
	cfg := exp.DefaultConfig()
	cfg.FileBytes = g.fileBytes
	cfg.RecordSize = g.record
	cfg.Layout, cfg.Pattern, cfg.Method = layout, pattern, m
	cfg.Seed = seed
	cfg.Verify = true
	return cfg
}

// warmup is the grid's untimed warm-up cell: disk-directed rb on the
// contiguous layout, one of the cheaper cells at either record size.
func (g gridWorkload) warmup(seed int64) exp.Config {
	return g.cell(seed, pfs.Contiguous, "rb", exp.DiskDirected)
}

// traced is the grid's cell that the traced run also records to the
// trace viewer: traditional caching on rc, random-blocks — the
// message-heavy cell of Figure 3.
func (g gridWorkload) traced(seed int64) exp.Config {
	return g.cell(seed, pfs.RandomBlocks, "rc", exp.TraditionalCaching)
}

func cellLabel(cfg exp.Config) string {
	return fmt.Sprintf("%v/%s/%v", cfg.Method, cfg.Pattern, cfg.Layout)
}

// cellRun is one grid cell's outcome in a timed batch.
type cellRun struct {
	res *exp.Result
	err error
	ms  float64
}

// runGridBatch runs the whole grid once on an exp.Runner and times every
// cell through the runner's per-cell hook. Failures are recorded per
// cell rather than stopping the batch early.
func runGridBatch(cfgs []exp.Config, workers int) (map[string]*cellRun, time.Duration) {
	var mu sync.Mutex
	cells := make(map[string]*cellRun, len(cfgs))
	r := exp.NewRunner(workers, nil)
	r.SetRunFunc(func(cfg exp.Config) (*exp.Result, error) {
		t0 := time.Now()
		res, err := exp.Run(cfg)
		d := time.Since(t0)
		mu.Lock()
		cells[cellLabel(cfg)] = &cellRun{res: res, err: err, ms: ms(d)}
		mu.Unlock()
		return res, err
	})
	t0 := time.Now()
	r.RunAll(cfgs, nil) // failures are read per cell from cells
	return cells, time.Since(t0)
}

// tally counts the grid's cells and prints each failure with what
// identifies it.
func tally(rep *report, cfgs []exp.Config, cells map[string]*cellRun) {
	for _, cfg := range cfgs {
		rep.attempted++
		c := cells[cellLabel(cfg)]
		switch {
		case c == nil:
			rep.failed++
			fmt.Printf("FAIL grid cell %s seed %d: not run (the runner stopped after an earlier failure)\n", cellLabel(cfg), cfg.Seed)
		case c.err != nil || c.res.VerifyErrors > 0:
			rep.failed++
			verr := 0
			if c.res != nil {
				verr = c.res.VerifyErrors
			}
			fmt.Printf("FAIL grid cell method=%v pattern=%s layout=%v record=%d seed=%d workload=classic verify_errors=%d err=%v\n",
				cfg.Method, cfg.Pattern, cfg.Layout, cfg.RecordSize, cfg.Seed, verr, c.err)
		}
	}
}

// runGrid measures a grid workload with tracing off: repeated set-ups,
// then whole-grid batches on two workers until the run time is spent.
func runGrid(o opts) (*report, error) {
	g := gridFor(o.workload, o.tiny)
	rep := newReport()
	var cfgs []exp.Config
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			runtime.GC() // start from a collected heap, as the first set-up does
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		cfgs = g.configs(o.seed)
		if _, err := exp.Run(g.warmup(o.seed)); err != nil {
			return nil, fmt.Errorf("warm-up cell: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups))
	fmt.Printf("%s: setup_s samples %.4f\n", o.workload, setups)

	var walls, cellMS []float64
	start := time.Now()
	for len(walls) == 0 || moreBatches(start, walls, o.seconds) {
		cells, wall := runGridBatch(cfgs, 2)
		walls = append(walls, wall.Seconds())
		for _, c := range cells {
			cellMS = append(cellMS, c.ms)
		}
		if len(walls) == 1 { // cells are deterministic: one tally stands for every batch
			tally(rep, cfgs, cells)
		}
	}
	rep.set("wall_s", median(walls))
	rep.set("op_ms.p50", stats.Quantile(cellMS, 0.5))
	rep.set("op_ms.p90", stats.Quantile(cellMS, 0.9))
	rep.set("peak_rss_mb", peakRSSMB())
	fmt.Printf("%s: %d cells x %d batches; wall_s %v; cell_ms p50 %.2f p90 %.2f (n=%d)\n",
		o.workload, len(cfgs), len(walls), walls, rep.values["op_ms.p50"], rep.values["op_ms.p90"], len(cellMS))
	return rep, nil
}

// traceGrid is the traced run of a grid workload: the grid once on two
// workers, then every cell sequentially through exp.Run and through the
// phase-split replay, then the figure renderings and one traced cell.
func traceGrid(o opts) (*report, error) {
	g := gridFor(o.workload, o.tiny)
	rep := newReport()
	cfgs := g.configs(o.seed)

	par, _ := runGridBatch(cfgs, 2)
	tally(rep, cfgs, par)

	var l layers
	var runTotal time.Duration
	seq := make([]*exp.Result, 0, len(cfgs))
	for _, cfg := range cfgs {
		t0 := time.Now()
		res, err := exp.Run(cfg)
		runTotal += time.Since(t0)
		if err != nil {
			rep.check(false, "sequential exp.Run %s: %v", cellLabel(cfg), err)
			continue
		}
		seq = append(seq, res)
		if p := par[cellLabel(cfg)]; p == nil || p.res == nil || outcomeOf(p.res) != outcomeOf(res) {
			rep.check(false, "cell %s differs between 1 and 2 workers", cellLabel(cfg))
		}
		got, err := replayCell(cfg, &l)
		rep.check(err == nil && got == outcomeOf(res),
			"replay of %s: got %+v (err %v), exp.Run gave %+v", cellLabel(cfg), got, err, outcomeOf(res))
	}
	rep.setLayers(&l, runTotal)
	rep.setCounts(seq)

	random, contig := gridTables(g, o.seed, seq)
	renderTables(rep, random, contig)
	base := exp.DefaultConfig()
	h, err := exp.ComputeHeadlines([]*exp.Table{random, random}, []*exp.Table{contig, contig}, base.MaxBandwidthMBps())
	if err != nil {
		return nil, err
	}
	rep.set("model.speedup_random", h.MaxSpeedupRandom)
	rep.set("model.speedup_contig", h.MaxSpeedupContig)
	rep.set("model.presort_gain_max", h.PresortGainMax)
	rep.set("model.peak_fraction", h.PeakFraction)
	rep.set("model.contig_over_random", h.ContigOverRandom)
	fmt.Printf("model headlines at %d-byte records; the model is unvalidated beyond the paper's headlines,\n"+
		"which span both record sizes (8 B and 8 KB):\n"+
		"  max DDIO+sort/TC speedup, random layout  %.1fx (paper: up to 9.0x)\n"+
		"  max DDIO/TC speedup, contiguous layout   %.1fx (paper: up to 16.2x)\n"+
		"  presort gain on random layout, max       %.0f%% (paper: 41-50%%)\n"+
		"  best DDIO fraction of hardware ceiling   %.0f%% (paper: 93%%)\n"+
		"  contiguous over random (median, DDIO)    %.1fx (paper: ~5x)\n",
		g.record, h.MaxSpeedupRandom, h.MaxSpeedupContig, 100*h.PresortGainMax, 100*h.PeakFraction, h.ContigOverRandom)

	traceCell(rep, g.traced(o.seed))
	if n := len(seq); n > 0 {
		fmt.Printf("%s traced: %d cells; sim.run %.0f ms of %.0f ms replayed (%.1f%%); exp.Run total %.0f ms\n",
			o.workload, n, l.run.ms(), ms(l.total), rep.values["sim.run_share_pct"], ms(runTotal))
	}
	return rep, nil
}

// gridTables arranges a grid's results as its two figure tables
// (random-blocks, contiguous): patterns × methods of throughput.
func gridTables(g gridWorkload, seed int64, results []*exp.Result) (random, contig *exp.Table) {
	byLabel := map[string]*exp.Result{}
	for _, res := range results {
		byLabel[cellLabel(res.Config)] = res
	}
	mk := func(layout pfs.LayoutKind) *exp.Table {
		t := &exp.Table{
			ID:       fmt.Sprintf("grid-%v", layout),
			Title:    fmt.Sprintf("throughput (MB/s), %v layout, %d-byte records", layout, g.record),
			RowLabel: "pattern",
			Rows:     g.patterns,
		}
		for _, m := range gridMethods {
			t.Cols = append(t.Cols, m.String())
		}
		for _, pat := range g.patterns {
			row := make([]exp.Cell, len(gridMethods))
			for j, m := range gridMethods {
				if res := byLabel[cellLabel(g.cell(seed, layout, pat, m))]; res != nil {
					row[j] = exp.Cell{Mean: res.MBps}
				}
			}
			t.Cells = append(t.Cells, row)
		}
		return t
	}
	return mk(pfs.RandomBlocks), mk(pfs.Contiguous)
}

// renderTables times the figure renderings a user regenerates from the
// grid: text, JSON, CSV and the grouped-bar SVG of each table.
func renderTables(rep *report, tables ...*exp.Table) {
	var text, js, csv, svg phase
	for _, t := range tables {
		text.span(func() { _ = t.Format() })
		js.span(func() { _, _ = t.JSON() })
		csv.span(func() { _ = t.CSV() })
		svg.span(func() { _ = plot.FigureSVG(t) })
	}
	rep.set("render.text_ms", text.ms())
	rep.set("render.json_ms", js.ms())
	rep.set("render.csv_ms", csv.ms())
	rep.set("plot.svg_ms", svg.ms())
}

// traceCell runs cfg traced and untraced, renders the trace viewer, and
// checks that tracing fired the same events.
func traceCell(rep *report, cfg exp.Config) {
	t0 := time.Now()
	plain, err := exp.Run(cfg)
	runDur := time.Since(t0)
	if err != nil {
		rep.check(false, "untraced run of %s: %v", cellLabel(cfg), err)
		return
	}
	t0 = time.Now()
	res, rec, err := exp.TracedRun(cfg)
	tracedDur := time.Since(t0)
	if err != nil {
		rep.check(false, "traced run of %s: %v", cellLabel(cfg), err)
		return
	}
	rep.check(res.Events == plain.Events, "traced %s fired %d events, untraced %d", cellLabel(cfg), res.Events, plain.Events)
	var html bytes.Buffer
	var hp phase
	hp.span(func() { err = rec.WriteHTML(&html, exp.TraceTitle(cfg)) })
	rep.check(err == nil, "trace HTML of %s: %v", cellLabel(cfg), err)
	rep.set("trace.record_ms", ms(tracedDur-runDur))
	rep.set("trace.html_ms", hp.ms())
	rep.set("trace.events", float64(rec.Len()))
}
