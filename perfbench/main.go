// Command perfbench is the repository's benchmark. It runs one workload
// per invocation — a Figure 3/4 grid at 8 KB or 8 B records, or a mixed
// request stream against an in-process ddiosimd server — and prints
// every metric by name with its unit as one JSON object on the last
// line of standard output.
//
//	perfbench --workload grid-8k --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate, sequential traced run that splits host time by
// layer. See README.md for the workloads, metrics and how to read them.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// processStart approximates process start for the first set-up sample.
var processStart = time.Now()

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, which keeps one slow start from moving it.
const setupRepeats = 25

var workloads = []string{"grid-8k", "grid-8b", "served-mix"}

type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tiny     bool // shrink every workload to a few operations (set by the self-test)
}

func main() {
	var o opts
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&secs, "seconds", 20, "seconds to measure for (whole batches; at least one)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end measurement")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace == 1
	if trace != 0 && trace != 1 || secs < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		os.Exit(2)
	}

	rep, defs, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout, defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload in the mode o asks for and returns the
// report with the metric list it must print.
func run(o opts) (*report, []metricDef, error) {
	grid := o.workload == "grid-8k" || o.workload == "grid-8b"
	var rep *report
	var err error
	switch {
	case o.workload == "served-mix" && o.trace:
		rep, err = traceServed(o)
	case o.workload == "served-mix":
		rep, err = runServed(o)
	case grid && o.trace:
		rep, err = traceGrid(o)
	case grid:
		rep, err = runGrid(o)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	if err != nil {
		return nil, nil, err
	}
	if !o.trace {
		return rep, endToEnd, nil
	}
	rep.set("failed_frac", float64(rep.failed)/float64(max(rep.attempted, 1)))
	return rep, perLayer, nil
}
