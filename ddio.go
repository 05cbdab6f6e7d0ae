// Package ddio reproduces "Disk-directed I/O for MIMD Multiprocessors"
// (David Kotz, OSDI 1994): a complete simulated MIMD multiprocessor —
// HP 97560 disks, SCSI busses, a wormhole-routed torus interconnect,
// compute and I/O processors — together with three parallel file
// systems: the paper's traditional-caching baseline, its disk-directed
// I/O contribution (with and without physical presorting), and the
// contemporaneous two-phase I/O alternative.
//
// The top-level API runs whole-file transfer experiments:
//
//	cfg := ddio.DefaultConfig()       // the paper's Table 1 machine
//	cfg.Method = ddio.DiskDirectedSort
//	cfg.Pattern = "rc"                // HPF CYCLIC, Figure 2
//	res, err := ddio.Run(cfg)
//	fmt.Printf("%.1f MB/s\n", res.MBps)
//
// Every simulated transfer moves real bytes and is verified end to end.
// Figure5 … Figure8 regenerate the paper's machine-shape figures, and
// cmd/figures its whole evaluation; README.md maps each figure to its
// command and benchmark, and ARCHITECTURE.md tours the simulation stack
// underneath.
package ddio

import (
	"ddio/internal/disk"
	"ddio/internal/exp"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/trace"
)

// MiB is 2^20 bytes; the paper's "Mbytes/s" are MiB/s.
const MiB = exp.MiB

// Config describes one experiment: machine shape, file, access pattern,
// layout, and file-system method. See DefaultConfig.
type Config = exp.Config

// Result reports one experiment's throughput and substrate metrics.
type Result = exp.Result

// Trial aggregates replicated runs (mean throughput and coefficient of
// variation).
type Trial = exp.Trial

// Method selects the file system under test.
type Method = exp.Method

// File-system methods.
const (
	// TraditionalCaching is the Intel CFS-style baseline (Figure 1a).
	TraditionalCaching = exp.TraditionalCaching
	// DiskDirected is disk-directed I/O without the block presort.
	DiskDirected = exp.DiskDirected
	// DiskDirectedSort is full disk-directed I/O (Figure 1c).
	DiskDirectedSort = exp.DiskDirectedSort
	// TwoPhase is del Rosario/Bordawekar/Choudhary two-phase I/O (§7.1).
	TwoPhase = exp.TwoPhase
)

// LayoutKind selects the physical placement of file blocks on disk.
type LayoutKind = pfs.LayoutKind

// Disk layouts (paper §5).
const (
	Contiguous   = pfs.Contiguous
	RandomBlocks = pfs.RandomBlocks
)

// DiskSpec describes a disk-drive model.
type DiskSpec = disk.Spec

// Table is one regenerated figure or table.
type Table = exp.Table

// Options control figure regeneration (trials, file size, seed).
type Options = exp.Options

// DefaultConfig returns the paper's Table 1 configuration: 16 CPs and 16
// IOPs on a 6×6 torus, 16 HP 97560 disks on one SCSI bus per IOP, and a
// 10 MB file in 8 KB blocks.
func DefaultConfig() Config { return exp.DefaultConfig() }

// DefaultOptions mirrors the paper's experimental design: five trials of
// a 10 MB file.
func DefaultOptions() Options { return exp.DefaultOptions() }

// HP97560 returns the paper's disk model: a 1.3 GB HP 97560 (Ruemmler &
// Wilkes parameters).
func HP97560() *DiskSpec { return disk.HP97560() }

// Runner executes independent experiment runs on a bounded worker pool,
// with results slotted by index so output is bit-identical to a
// sequential run regardless of worker count.
type Runner = exp.Runner

// NewRunner returns a runner with the given concurrency (workers <= 0
// selects GOMAXPROCS) and optional serialized progress sink.
func NewRunner(workers int, progress func(string)) *Runner {
	return exp.NewRunner(workers, progress)
}

// Run executes one experiment.
func Run(cfg Config) (*Result, error) { return exp.Run(cfg) }

// RunTrials replicates cfg n times with independent seeds and aggregates
// throughput.
func RunTrials(cfg Config, n int) (*Trial, error) { return exp.Trials(cfg, n) }

// ParseMethod converts a method name ("tc", "ddio", "ddio-sort",
// "2phase") to a Method.
func ParseMethod(s string) (Method, error) { return exp.ParseMethod(s) }

// ParseLayout converts a layout name ("contiguous", "random") to its
// kind.
func ParseLayout(s string) (LayoutKind, error) { return pfs.ParseLayout(s) }

// ReadPatterns returns the paper's read patterns in display order.
func ReadPatterns() []string { return hpf.ReadPatterns() }

// WritePatterns returns the paper's write patterns in display order.
func WritePatterns() []string { return hpf.WritePatterns() }

// AllPatterns returns every pattern of Figures 3 and 4.
func AllPatterns() []string { return hpf.AllPatterns() }

// Figure5 regenerates Figure 5 (varying the number of CPs).
func Figure5(o Options) (*Table, error) { return exp.Figure5(o) }

// Figure6 regenerates Figure 6 (varying the number of IOPs/busses).
func Figure6(o Options) (*Table, error) { return exp.Figure6(o) }

// Figure7 regenerates Figure 7 (varying disks, one bus, contiguous).
func Figure7(o Options) (*Table, error) { return exp.Figure7(o) }

// Figure8 regenerates Figure 8 (varying disks, one bus, random layout).
func Figure8(o Options) (*Table, error) { return exp.Figure8(o) }

// Table1 renders the simulator parameters (the paper's Table 1).
func Table1() string { return exp.Table1() }

// TraceRecorder is a passive event-trace recorder (see internal/trace):
// attached to a run it captures disk busy/idle intervals, queue depths,
// request lifecycles, cache occupancy, and interconnect messages as a
// deterministic seq-ordered stream with JSONL/CSV emitters and derived
// utilization, bandwidth, and latency views.
type TraceRecorder = trace.Recorder

// TracedRun executes one experiment with a fresh trace recorder
// attached. Tracing is passive: the run fires the identical event
// sequence and reports the identical throughput as an untraced run.
func TracedRun(cfg Config) (*Result, *TraceRecorder, error) { return exp.TracedRun(cfg) }
