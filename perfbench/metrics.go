package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"ddio/internal/exp"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's whole vocabulary; BENCHMARK.json at the repository
// root names the same metrics (the self-test checks that it does).
type metricDef struct{ name, unit string }

// endToEnd are the host-time metrics a user waits on, measured with
// tracing off (--trace 0). Every workload reports every one of them:
// op_ms is the host latency of one operation, a grid cell or a served
// request.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_ms.p50", "ms"},
	{"op_ms.p90", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics (--trace 1). Host times are
// summed over the replayed cells; counts are simulated and exact. A
// layer the workload does not exercise reads 0 (see README.md for
// which layers each workload drives).
var perLayer = []metricDef{
	{"hpf.decomp_ms", "ms"},
	{"exp.other_ms", "ms"},
	{"exp.run_ms", "ms"},
	{"replay.overhead_pct", "%"},
	{"replay.coverage_pct", "%"},
	{"build_ms", "ms"},
	{"build_alloc_mb", "MB"},
	{"pfs.layout_ms", "ms"},
	{"pfs.fill_ms", "ms"},
	{"pfs.verify_ms", "ms"},
	{"pfs.fill_alloc_mb", "MB"},
	{"pfs.verify_alloc_mb", "MB"},
	{"fs.setup_ms", "ms"},
	{"fs.setup_alloc_mb", "MB"},
	{"sim.run_ms", "ms"},
	{"sim.run_alloc_mb", "MB"},
	{"sim.run_share_pct", "%"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.elapsed_s", "s"},
	{"sim.mbps_mean", "MB/s"},
	{"net.msgs", "count"},
	{"net.mb", "MB"},
	{"disk.reads", "count"},
	{"disk.writes", "count"},
	{"disk.cache_hits", "count"},
	{"disk.seeks", "count"},
	{"disk.busy_s", "s"},
	{"disk.queue_wait_s", "s"},
	{"bus.busy_s", "s"},
	{"iop.busy_s", "s"},
	{"cp.busy_s", "s"},
	{"tcfs.requests", "count"},
	{"tcfs.hit_ratio", "ratio"},
	{"tcfs.prefetches", "count"},
	{"tcfs.partial_rmw", "count"},
	{"core.blocks", "count"},
	{"core.memputs", "count"},
	{"core.memgets", "count"},
	{"core.partial_rmw", "count"},
	{"fault.disk_errors", "count"},
	{"fault.retries", "count"},
	{"workload.resolve_ms", "ms"},
	{"req.sim_latency_s.p50", "s"},
	{"req.sim_latency_s.p99", "s"},
	{"trace.record_ms", "ms"},
	{"trace.html_ms", "ms"},
	{"trace.events", "count"},
	{"render.text_ms", "ms"},
	{"render.json_ms", "ms"},
	{"render.csv_ms", "ms"},
	{"plot.svg_ms", "ms"},
	{"serve.parse_ms", "ms"},
	{"exp.sweep_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.cells_simulated", "count"},
	{"serve.rejected", "count"},
	{"serve.hit_overhead_ms", "ms"},
	{"miss_ms.p50", "ms"},
	{"hit_ms.p50", "ms"},
	{"hit_ms.p90", "ms"},
	{"trace_ms.p50", "ms"},
	{"failed_frac", "ratio"},
	{"model.speedup_random", "x"},
	{"model.speedup_contig", "x"},
	{"model.presort_gain_max", "ratio"},
	{"model.peak_fraction", "ratio"},
	{"model.contig_over_random", "x"},
}

// report is one run's outcome: the operation tally, whether every
// output check passed, and the metric values by name.
type report struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
}

func newReport() *report { return &report{correct: true, values: map[string]float64{}} }

// check records an output check; a failed one makes the run incorrect
// and is printed with its reason.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.correct = false
		fmt.Printf("CHECK FAILED: "+format+"\n", args...)
	}
}

// set records a metric value; the name must be in defs.
func (r *report) set(name string, v float64) { r.values[name] = v }

// write prints the result line: every metric of defs by name with its
// unit, in one JSON object on the last line of standard output.
func (r *report) write(w io.Writer, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	known := map[string]bool{}
	metrics := map[string]value{}
	for _, d := range defs {
		known[d.name] = true
		metrics[d.name] = value{r.values[d.name], d.unit}
	}
	var stray []string
	for name := range r.values {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return fmt.Errorf("perfbench: metrics %v are not in this mode's list", stray)
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// setLayers records the traced replay's per-phase host time and
// allocation, and how much of the replayed cells' time the timed calls
// cover. runTotal is the sequential exp.Run time of the same cells.
func (r *report) setLayers(l *layers, runTotal time.Duration) {
	r.set("hpf.decomp_ms", l.decomp.ms())
	r.set("exp.other_ms", ms(l.total-l.covered()))
	r.set("exp.run_ms", ms(runTotal))
	if runTotal > 0 {
		r.set("replay.overhead_pct", 100*(float64(l.covered())/float64(runTotal)-1))
	}
	if l.total > 0 {
		r.set("replay.coverage_pct", 100*float64(l.covered())/float64(l.total))
		r.set("sim.run_share_pct", 100*float64(l.run.dur)/float64(l.total))
	}
	r.set("build_ms", l.build.ms())
	r.set("build_alloc_mb", l.build.allocMB())
	r.set("pfs.layout_ms", l.layout.ms())
	r.set("pfs.fill_ms", l.fill.ms())
	r.set("pfs.verify_ms", l.verify.ms())
	r.set("pfs.fill_alloc_mb", l.fill.allocMB())
	r.set("pfs.verify_alloc_mb", l.verify.allocMB())
	r.set("fs.setup_ms", l.fsSetup.ms())
	r.set("fs.setup_alloc_mb", l.fsSetup.allocMB())
	r.set("sim.run_ms", l.run.ms())
	r.set("sim.run_alloc_mb", l.run.allocMB())
}

// setCounts records the simulated totals of a set of results. They are
// pure functions of the configurations, so they repeat exactly.
func (r *report) setCounts(results []*exp.Result) {
	var c exp.Result
	var mbps float64
	var p50s, p99s []float64
	for _, res := range results {
		c.Events += res.Events
		c.Elapsed += res.Elapsed
		mbps += res.MBps
		c.NetMsgs += res.NetMsgs
		c.NetBytes += res.NetBytes
		c.Disk.Reads += res.Disk.Reads
		c.Disk.Writes += res.Disk.Writes
		c.Disk.CacheHits += res.Disk.CacheHits
		c.Disk.Seeks += res.Disk.Seeks
		c.Disk.Busy += res.Disk.Busy
		c.Disk.QueueWait += res.Disk.QueueWait
		c.BusBusy += res.BusBusy
		c.IOPBusy += res.IOPBusy
		c.CPBusy += res.CPBusy
		c.TC.Requests += res.TC.Requests
		c.TC.CacheHits += res.TC.CacheHits
		c.TC.CacheMiss += res.TC.CacheMiss
		c.TC.Prefetches += res.TC.Prefetches
		c.TC.PartialRMW += res.TC.PartialRMW
		c.DD.Blocks += res.DD.Blocks
		c.DD.Memputs += res.DD.Memputs
		c.DD.Memgets += res.DD.Memgets
		c.DD.PartialBlockRMW += res.DD.PartialBlockRMW
		c.Faults.DiskErrors += res.Faults.DiskErrors
		c.Faults.Retries += res.Faults.Retries
		if res.ReqLatency.N > 0 {
			p50s = append(p50s, res.ReqLatency.P50)
			p99s = append(p99s, res.ReqLatency.P99)
		}
	}
	r.set("sim.events", float64(c.Events))
	if c.Events > 0 {
		r.set("sim.ns_per_event", r.values["sim.run_ms"]*1e6/float64(c.Events))
	}
	r.set("sim.elapsed_s", c.Elapsed.Seconds())
	if len(results) > 0 {
		r.set("sim.mbps_mean", mbps/float64(len(results)))
	}
	r.set("net.msgs", float64(c.NetMsgs))
	r.set("net.mb", float64(c.NetBytes)/(1<<20))
	r.set("disk.reads", float64(c.Disk.Reads))
	r.set("disk.writes", float64(c.Disk.Writes))
	r.set("disk.cache_hits", float64(c.Disk.CacheHits))
	r.set("disk.seeks", float64(c.Disk.Seeks))
	r.set("disk.busy_s", c.Disk.Busy.Seconds())
	r.set("disk.queue_wait_s", c.Disk.QueueWait.Seconds())
	r.set("bus.busy_s", c.BusBusy.Seconds())
	r.set("iop.busy_s", c.IOPBusy.Seconds())
	r.set("cp.busy_s", c.CPBusy.Seconds())
	r.set("tcfs.requests", float64(c.TC.Requests))
	if n := c.TC.CacheHits + c.TC.CacheMiss; n > 0 {
		r.set("tcfs.hit_ratio", float64(c.TC.CacheHits)/float64(n))
	}
	r.set("tcfs.prefetches", float64(c.TC.Prefetches))
	r.set("tcfs.partial_rmw", float64(c.TC.PartialRMW))
	r.set("core.blocks", float64(c.DD.Blocks))
	r.set("core.memputs", float64(c.DD.Memputs))
	r.set("core.memgets", float64(c.DD.Memgets))
	r.set("core.partial_rmw", float64(c.DD.PartialBlockRMW))
	r.set("fault.disk_errors", float64(c.Faults.DiskErrors))
	r.set("fault.retries", float64(c.Faults.Retries))
	r.set("req.sim_latency_s.p50", median(p50s))
	r.set("req.sim_latency_s.p99", median(p99s))
}
