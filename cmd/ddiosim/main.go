// Command ddiosim runs a single disk-directed-I/O experiment and prints
// its throughput and substrate metrics. With -sweep it runs a whole
// declarative scale sweep (a preset name or JSON spec file — the same
// specs cmd/figures runs; see EXPERIMENTS.md) using this command's
// -trials/-j/-seed/-filemb flags.
//
// Observability (see EXPERIMENTS.md "Traces and figures"): -trace and
// -tracecsv record the run's event trace as JSONL / long-format CSV,
// -tracehtml writes a self-contained explorable HTML viewer (timelines,
// latency percentiles, per-request critical paths), and -plot renders
// SVG — a per-disk utilization timeline for a single run, a paper-style
// figure (or two-axis response-surface heatmap) for a sweep. Tracing
// forces a single trial: a trace is one run's story.
//
// Example:
//
//	ddiosim -method ddio-sort -pattern rc -layout random -record 8
//	ddiosim -method ddio-sort -pattern rb -trace run.jsonl -plot run.svg
//	ddiosim -sweep ext-smoke -sweepjson ext-smoke.json -plot ext-smoke.svg
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ddio/internal/exp"
	"ddio/internal/fault"
	"ddio/internal/pfs"
	"ddio/internal/plot"
	"ddio/internal/trace"
	"ddio/internal/workload"
)

func main() {
	cfg := exp.DefaultConfig()
	method := flag.String("method", "tc", "file system: tc | ddio | ddio-sort | 2phase")
	pattern := flag.String("pattern", "ra", "access pattern (ra rn rb rc rnb rbb rcb rbc rcc rcn, w...)")
	layout := flag.String("layout", "random", "disk layout: contiguous | random")
	sweep := flag.String("sweep", "", "run a sweep spec (preset name or JSON file) instead of a single experiment")
	sweepJSON := flag.String("sweepjson", "", "with -sweep: also write the machine-readable sweep result to this file")
	sweepCSV := flag.String("sweepcsv", "", "with -sweep: also write the long-format (tidy) per-cell CSV to this file")
	traceOut := flag.String("trace", "", "write the run's event trace as JSON Lines to this file (single run; forces -trials 1)")
	traceCSV := flag.String("tracecsv", "", "write the run's event trace as long-format CSV to this file (single run; forces -trials 1)")
	traceHTML := flag.String("tracehtml", "", "write the run's explorable HTML trace viewer to this file (single run; forces -trials 1)")
	plotOut := flag.String("plot", "", "write an SVG to this file: a disk-utilization timeline for a single run, the sweep figure with -sweep")
	faultsArg := flag.String("faults", "", "fault plan: inline JSON ({\"disk_error_rate\":0.05,...}) or a plan file; see EXPERIMENTS.md")
	workloadArg := flag.String("workload", "", "workload: inline JSON spec, a spec file, or a .csv block trace; see EXPERIMENTS.md")
	flag.IntVar(&cfg.NCP, "cps", cfg.NCP, "number of compute processors")
	flag.IntVar(&cfg.NIOP, "iops", cfg.NIOP, "number of I/O processors (one bus each)")
	flag.IntVar(&cfg.NDisks, "disks", cfg.NDisks, "number of disks")
	fileMB := flag.Int64("filemb", 10, "file size in MiB")
	flag.IntVar(&cfg.RecordSize, "record", cfg.RecordSize, "record size in bytes")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	trials := flag.Int("trials", 1, "independent trials (mean reported)")
	workers := flag.Int("j", 0, "concurrent trial runs (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print substrate metrics")
	flag.BoolVar(&cfg.Verify, "verify", true, "verify data end to end")
	flag.BoolVar(&cfg.DD.GatherScatter, "gather", false, "gather/scatter Memput/Memget (paper future work)")
	flag.IntVar(&cfg.DD.BuffersPerDisk, "buffers", cfg.DD.BuffersPerDisk, "disk-directed buffers per disk")
	flag.BoolVar(&cfg.TC.StridedRequests, "strided", false, "strided traditional-caching requests (paper future work)")
	noDiskCache := flag.Bool("nodiskcache", false, "disable the drive's read-ahead/write-behind cache")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	// Profiles are written on normal completion (including the -sweep
	// early return); a fatal() exit abandons them — profiling a failed
	// run is not useful.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			closeOut(f, *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle the heap so live-object numbers are stable
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
			closeOut(f, *memProfile)
		}()
	}

	var plan *fault.Plan
	if *faultsArg != "" {
		var err error
		if plan, err = fault.ResolvePlan(*faultsArg); err != nil {
			fatal(err)
		}
	}
	var wl *workload.Spec
	if *workloadArg != "" {
		var err error
		if wl, err = workload.ResolveSpec(*workloadArg); err != nil {
			fatal(err)
		}
	}

	if *sweep != "" {
		if *traceOut != "" || *traceCSV != "" || *traceHTML != "" {
			fmt.Fprintln(os.Stderr, "ddiosim: -trace/-tracecsv/-tracehtml record a single run and are ignored with -sweep")
		}
		opt := exp.Options{
			Trials:    *trials,
			FileBytes: *fileMB * exp.MiB,
			Seed:      cfg.Seed,
			Verify:    cfg.Verify,
			Workers:   *workers,
			Faults:    plan,
			Workload:  wl,
		}
		if *verbose {
			opt.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
		}
		spec, err := exp.ResolveSweep(*sweep)
		if err != nil {
			fatal(err)
		}
		res, err := spec.RunFull(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Table.Format())
		fmt.Printf("max cv %.3f\n", res.Table.MaxCV())
		if *sweepJSON != "" {
			data, err := res.JSON()
			if err != nil {
				fatal(err)
			}
			writeOut(*sweepJSON, data)
		}
		if *sweepCSV != "" {
			writeOut(*sweepCSV, []byte(res.LongCSV()))
		}
		if *plotOut != "" {
			writeOut(*plotOut, []byte(plot.SweepFigure(res)))
		}
		return
	}

	if *noDiskCache {
		spec := *cfg.Disk
		spec.CacheSegmentSectors = 0
		cfg.Disk = &spec
	}

	var err error
	if cfg.Method, err = exp.ParseMethod(*method); err != nil {
		fatal(err)
	}
	if cfg.Layout, err = pfs.ParseLayout(*layout); err != nil {
		fatal(err)
	}
	cfg.Pattern = *pattern
	cfg.FileBytes = *fileMB * exp.MiB
	cfg.Faults = plan
	cfg.Workload = wl

	if *sweepJSON != "" || *sweepCSV != "" {
		fmt.Fprintln(os.Stderr, "ddiosim: -sweepjson/-sweepcsv apply only with -sweep; ignored")
	}
	var t *exp.Trial
	var rec *trace.Recorder
	if traced := *traceOut != "" || *traceCSV != "" || *traceHTML != "" || *plotOut != ""; traced {
		// A trace is the story of one run; replicated trials would
		// interleave into nonsense, so tracing forces a single run.
		if *trials > 1 {
			fmt.Fprintln(os.Stderr, "ddiosim: tracing records a single run; ignoring -trials")
		}
		res, r2, err := exp.TracedRun(cfg)
		if err != nil {
			fatal(err)
		}
		rec = r2
		t = &exp.Trial{Results: []*exp.Result{res}, MBps: []float64{res.MBps}, Mean: res.MBps}
	} else {
		t, err = exp.NewRunner(*workers, nil).Trials(cfg, *trials)
		if err != nil {
			fatal(err)
		}
	}
	r := t.Results[0]
	what := cfg.Pattern // a workload run ignores -pattern
	if wl.Enabled() {
		what = strings.TrimSpace("workload " + wl.Name)
	}
	fmt.Printf("%s %s on %s layout: %.2f MB/s (cv %.3f over %d trials)\n",
		cfg.Method, what, cfg.Layout, t.Mean, t.CV, len(t.Results))
	if wl.Enabled() {
		fmt.Printf("  workload: %s\n", wl.Summary())
	}
	fmt.Printf("  elapsed %v, %.4g MiB moved, hardware ceiling %.1f MB/s\n",
		r.Elapsed.Round(10*time.Microsecond), float64(r.MovedBytes)/exp.MiB, cfg.MaxBandwidthMBps())
	if *verbose {
		fmt.Printf("  disk: %d reads, %d writes, %d ra-hits, %d streamed, %d seeks (%d cyls)\n",
			r.Disk.Reads, r.Disk.Writes, r.Disk.CacheHits, r.Disk.CacheStream, r.Disk.Seeks, r.Disk.SeekCylinders)
		fmt.Printf("  net: %d msgs, %d bytes; IOP cpu busy %v; CP cpu busy %v; bus busy %v\n",
			r.NetMsgs, r.NetBytes, r.IOPBusy, r.CPBusy, r.BusBusy)
		if r.TC.Requests > 0 {
			fmt.Printf("  tc: %d requests, %d hits / %d misses, %d prefetches, %d flushes (%d RMW)\n",
				r.TC.Requests, r.TC.CacheHits, r.TC.CacheMiss, r.TC.Prefetches, r.TC.Flushes, r.TC.PartialRMW)
		}
		if r.DD.Requests > 0 {
			fmt.Printf("  ddio: %d blocks, %d memputs, %d memgets, %d partial-RMW\n",
				r.DD.Blocks, r.DD.Memputs, r.DD.Memgets, r.DD.PartialBlockRMW)
		}
		if f := r.Faults; f != (exp.FaultTotals{}) {
			fmt.Printf("  faults: %d disk errors, %d retries, %d recovered, %d lost; %d msgs dropped, %d resends, %d spikes\n",
				f.DiskErrors, f.Retries, f.Recovered, f.Exhausted, f.DroppedMsgs, f.Resends, f.Spikes)
		}
		fmt.Printf("  %d simulation events\n", r.Events)
		if cfg.Verify {
			fmt.Printf("  verify: %d errors\n", r.VerifyErrors)
			if r.FirstBad != nil {
				fmt.Printf("  first bad range: %v\n", r.FirstBad)
			}
		}
	}

	if rec != nil {
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			if err := rec.WriteJSONL(f); err != nil {
				fatal(err)
			}
			closeOut(f, *traceOut)
		}
		if *traceCSV != "" {
			f, err := os.Create(*traceCSV)
			if err != nil {
				fatal(err)
			}
			if err := rec.WriteCSV(f); err != nil {
				fatal(err)
			}
			closeOut(f, *traceCSV)
		}
		if *traceHTML != "" {
			f, err := os.Create(*traceHTML)
			if err != nil {
				fatal(err)
			}
			if err := rec.WriteHTML(f, exp.TraceTitle(cfg)); err != nil {
				fatal(err)
			}
			closeOut(f, *traceHTML)
		}
		if *plotOut != "" {
			title := "disk activity — " + exp.TraceTitle(cfg)
			writeOut(*plotOut, []byte(plot.UtilizationTimeline(rec, title)))
		}
		fmt.Printf("  trace: %d events, mean disk utilization %.0f%%\n",
			rec.Len(), rec.MeanDiskUtilization(0)*100)
	}
	// The runner already failed untraced runs; a traced run keeps its
	// artifacts for diagnosis and then fails the same way.
	if r.VerifyErrors > 0 {
		fatal(fmt.Errorf("%d verification errors; first: %v", r.VerifyErrors, r.FirstBad))
	}
}

// writeOut writes one artifact file, reporting it on stderr like the
// sweep emitters do.
func writeOut(path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func closeOut(f *os.File, path string) {
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddiosim:", err)
	os.Exit(1)
}
