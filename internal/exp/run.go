package exp

import (
	"fmt"
	"strings"
	"time"

	"ddio/internal/bus"
	"ddio/internal/cluster"
	"ddio/internal/core"
	"ddio/internal/disk"
	"ddio/internal/fault"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/sim"
	"ddio/internal/stats"
	"ddio/internal/tcfs"
	"ddio/internal/trace"
	"ddio/internal/twophase"
)

// DiskTotals sums the per-disk metrics of a run.
type DiskTotals struct {
	Reads, Writes          int64         // media transfers
	CacheHits, CacheStream int64         // read-ahead segment hits / streamed sectors
	Seeks                  int64         // arm movements
	SeekCylinders          int64         // cylinders crossed, summed
	QueueWait              time.Duration // total request time spent queued
	Busy                   time.Duration // total mechanism busy time
}

// FaultTotals sums what fault injection did to a run and what recovery
// cost. Zero throughout for fault-free runs. The counting invariant —
// every injected disk error was either recovered by a retry or counted
// as exhausted — is DiskErrors == Retries + Exhausted: each recovered
// request contributes exactly as many resubmissions as failures, and
// each exhausted request fails Limit+1 times on Limit resubmissions,
// with the final failure counted here as the loss.
type FaultTotals struct {
	DiskErrors  int64 // transient disk failures injected
	Retries     int64 // disk-request resubmissions by the servers
	Recovered   int64 // failed requests a retry eventually completed
	Exhausted   int64 // requests lost after the retry budget — typed failures
	DroppedMsgs int64 // interconnect messages dropped in the fabric
	Resends     int64 // retransmissions (equals DroppedMsgs)
	Spikes      int64 // interconnect latency spikes injected
}

// Result reports one experiment run.
type Result struct {
	Config  Config        // the configuration that produced this result
	Elapsed time.Duration // simulated wall-clock time of the transfer
	// MBps is the paper's reported number: file bytes over elapsed time
	// in MiB/s; for the ra pattern this is already the "normalized by
	// number of CPs" value since every CP moved a whole file copy.
	MBps float64
	// AggMBps counts all application bytes actually moved (ra moves
	// NCP copies).
	AggMBps    float64
	MovedBytes int64 // application bytes moved across all CPs

	Disk     DiskTotals    // summed per-disk metrics
	BusBusy  time.Duration // total SCSI bus busy time
	NetMsgs  int64         // interconnect messages
	NetBytes int64         // interconnect payload bytes
	IOPBusy  time.Duration // total IOP CPU busy time
	CPBusy   time.Duration // total CP CPU busy time
	TC       tcfs.Metrics  // traditional-caching counters (TC and 2phase runs)
	DD       core.Metrics  // disk-directed counters (DDIO runs)
	Faults   FaultTotals   // fault-injection and recovery totals
	Events   int64         // simulation events fired

	// ReqLatency holds per-request latency statistics (seconds, with
	// p50/p90/p99 populated) for workload runs — open-arrival runs are
	// latency studies, not bandwidth studies. Zero for classic
	// whole-file runs, which have no per-request arrivals to time.
	ReqLatency stats.Summary

	VerifyErrors int            // blocks/chunks that failed end-to-end verification
	FirstBad     *VerifyFailure // the first of them; nil when VerifyErrors is 0
}

// VerifyFailure names the first range that failed end-to-end
// verification: whose data it was, where it lies in the file, and the
// first byte that differs from the file image.
type VerifyFailure struct {
	Phase   int   // workload phase; -1 for classic runs
	Request int   // index in the CP's request stream; -1 for collective chunks
	CP      int   // compute processor that read or wrote the range; -1 if none did
	Write   bool  // checked on disk after a write, not in CP memory after a read
	FileOff int64 // the range: [FileOff, FileOff+Len)
	Len     int64
	Index   int64 // first bad byte, relative to FileOff
	Block   int64 // file block holding the first bad byte
	Want    byte  // the image byte
	Got     byte  // the byte found
}

// String formats the failure for error messages and ddiosim -v.
func (v *VerifyFailure) String() string {
	var b strings.Builder
	if v.Phase >= 0 {
		fmt.Fprintf(&b, "phase %d ", v.Phase)
	}
	fmt.Fprintf(&b, "cp %d ", v.CP)
	if v.Request >= 0 {
		fmt.Fprintf(&b, "request %d ", v.Request)
	}
	op := "read"
	if v.Write {
		op = "write"
	}
	fmt.Fprintf(&b, "%s [%d, %d): byte %d (file offset %d, block %d) is %#02x, want %#02x",
		op, v.FileOff, v.FileOff+v.Len, v.Index, v.FileOff+v.Index, v.Block, v.Got, v.Want)
	return b.String()
}

// verifier counts verification failures and keeps the first.
type verifier struct {
	blockSize int64
	errs      int
	first     *VerifyFailure
}

// check compares data with the file image at off. A mismatch counts one
// error; the first is recorded, identified by whose (Phase, Request, CP,
// Write).
func (v *verifier) check(data []byte, off int64, whose VerifyFailure) {
	i := pfs.VerifyImage(data, off)
	if i < 0 {
		return
	}
	v.errs++
	if v.first != nil {
		return
	}
	bad := off + int64(i)
	fail := whose // a copy, so only a failing call allocates
	fail.FileOff, fail.Len, fail.Index = off, int64(len(data)), int64(i)
	fail.Block = bad / v.blockSize
	fail.Want, fail.Got = pfs.ByteAt(bad), data[i]
	v.first = &fail
}

// cpNames are the per-CP proc names for the machine widths the presets
// reach (≤ 64 CPs), precomputed so per-run spawns don't allocate them.
var cpNames = func() [64]string {
	var a [64]string
	for i := range a {
		a[i] = fmt.Sprintf("cp%d", i)
	}
	return a
}()

// cpProcName returns the diagnostic proc name for compute processor cp.
func cpProcName(cp int) string {
	if cp < len(cpNames) {
		return cpNames[cp]
	}
	return fmt.Sprintf("cp%d", cp)
}

// machine is the assembled simulated hardware of one run: engine,
// interconnect, buses, disks, and the striped file — everything below
// the file-system method. Built identically for classic and workload
// runs so the substrate streams (layout, jitter, faults) draw the same
// values either way.
type machine struct {
	eng   *sim.Engine
	rng   *sim.Rand
	inj   *fault.Injector
	m     *cluster.Machine
	buses []*bus.Bus
	disks []*disk.Disk
	f     *pfs.File
}

// buildMachine assembles the simulated machine from cfg. It may arm
// cfg.TC.Retry/cfg.DD.Retry from the fault plan — pass a private copy.
// The caller owns mc.Close.
func buildMachine(cfg *Config) (*machine, error) {
	mc := &machine{eng: sim.NewEngine()}
	mc.eng.SetRecorder(cfg.Trace) // before machine build: components capture it
	mc.rng = sim.NewRand(cfg.Seed)
	// The injector draws only from dedicated "fault-*" sub-streams, so a
	// nil (or disabled) plan leaves the layout and jitter streams — and
	// therefore the whole run — bit-identical to a faultless build.
	mc.inj = fault.NewInjector(cfg.Faults, mc.rng, cfg.NDisks)
	if pol := mc.inj.Retry(); pol.Enabled() {
		cfg.TC.Retry = pol // also covers the two-phase path (it runs on tcfs servers)
		cfg.DD.Retry = pol
	}
	mc.m = cluster.New(mc.eng, cfg.Net, cfg.NCP, cfg.NIOP, mc.rng)
	mc.m.InjectFaults(mc.inj)

	mc.buses = make([]*bus.Bus, cfg.NIOP)
	for i := range mc.buses {
		mc.buses[i] = bus.New(mc.eng, fmt.Sprintf("bus%d", i), cfg.BusBandwidth, cfg.BusOverhead)
	}
	mc.disks = make([]*disk.Disk, cfg.NDisks)
	for d := range mc.disks {
		mc.disks[d] = disk.New(mc.eng, fmt.Sprintf("d%d", d), cfg.Disk, mc.buses[d%cfg.NIOP], cfg.DiskSched)
		mc.disks[d].SetFaults(mc.inj.Disk(d))
	}
	f, err := pfs.NewFile(mc.disks, cfg.BlockSize, cfg.NumBlocks(), cfg.Layout, mc.rng)
	if err != nil {
		mc.eng.Close()
		return nil, err
	}
	mc.f = f
	return mc, nil
}

// Close releases the machine's engine resources.
func (mc *machine) Close() { mc.eng.Close() }

// collectSubstrate sums the machine-level metrics — disks, buses,
// interconnect, CPU busy time, fault totals — into r. Call after the
// method counters (TC/DD) are collected: the fault block folds in
// their retry counts.
func (mc *machine) collectSubstrate(r *Result) {
	for _, d := range mc.disks {
		dm := d.Metrics()
		r.Disk.Reads += dm.Reads
		r.Disk.Writes += dm.Writes
		r.Disk.CacheHits += dm.CacheHits
		r.Disk.CacheStream += dm.CacheStreams
		r.Disk.Seeks += dm.SeekCount
		r.Disk.SeekCylinders += dm.SeekCylinders
		r.Disk.QueueWait += dm.QueueWait
		r.Disk.Busy += dm.Busy
	}
	for _, b := range mc.buses {
		r.BusBusy += b.Busy()
	}
	r.NetMsgs = mc.m.Net.Messages()
	r.NetBytes = mc.m.Net.Bytes()
	for _, n := range mc.m.IOPs {
		r.IOPBusy += n.CPU.Busy()
	}
	for _, n := range mc.m.CPs {
		r.CPBusy += n.CPU.Busy()
	}
	if st := mc.inj.Stats(); st != (fault.Stats{}) || r.TC.DiskRetries+r.DD.DiskRetries > 0 {
		r.Faults = FaultTotals{
			DiskErrors:  st.DiskErrors,
			Retries:     r.TC.DiskRetries + r.DD.DiskRetries,
			Recovered:   r.TC.DiskRecovered + r.DD.DiskRecovered,
			Exhausted:   r.TC.DiskLost + r.DD.DiskLost,
			DroppedMsgs: st.DroppedMsgs,
			Resends:     st.Resends,
			Spikes:      st.Spikes,
		}
	}
}

// collectTCFrom sums tcfs server counters into the result; shared by
// the TC and two-phase cases (both run on tcfs servers).
func collectTCFrom(servers []*tcfs.Server) func(r *Result) {
	return func(r *Result) {
		for _, s := range servers {
			sm := s.Metrics()
			r.TC.Requests += sm.Requests
			r.TC.Reads += sm.Reads
			r.TC.Writes += sm.Writes
			r.TC.CacheHits += sm.CacheHits
			r.TC.CacheMiss += sm.CacheMiss
			r.TC.Prefetches += sm.Prefetches
			r.TC.Flushes += sm.Flushes
			r.TC.PartialRMW += sm.PartialRMW
			r.TC.DiskRetries += sm.DiskRetries
			r.TC.DiskRecovered += sm.DiskRecovered
			r.TC.DiskLost += sm.DiskLost
		}
	}
}

// collectDDFrom sums disk-directed server counters into the result.
func collectDDFrom(servers []*core.Server) func(r *Result) {
	return func(r *Result) {
		for _, s := range servers {
			sm := s.Metrics()
			r.DD.Requests += sm.Requests
			r.DD.Blocks += sm.Blocks
			r.DD.Memputs += sm.Memputs
			r.DD.Memgets += sm.Memgets
			r.DD.PartialBlockRMW += sm.PartialBlockRMW
			r.DD.DiskRetries += sm.DiskRetries
			r.DD.DiskRecovered += sm.DiskRecovered
			r.DD.DiskLost += sm.DiskLost
		}
	}
}

// Run executes one experiment: the classic whole-file collective
// transfer of cfg.Pattern, or — when cfg.Workload is enabled — the
// declared workload's phases, under the selected method either way.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workload.Enabled() {
		return runWorkload(cfg)
	}
	pat, err := hpf.ParsePattern(cfg.Pattern)
	if err != nil {
		return nil, err
	}
	dec, err := pat.Decomp(cfg.FileBytes, cfg.RecordSize, cfg.NCP)
	if err != nil {
		return nil, err
	}

	mc, err := buildMachine(&cfg)
	if err != nil {
		return nil, err
	}
	defer mc.Close()
	eng, m, f := mc.eng, mc.m, mc.f

	// Build the file system under test and the per-CP transfer bodies.
	var runCP func(p *sim.Proc, cp int)
	var endTime func() sim.Time
	var collectTC func(r *Result)
	var collectDD func(r *Result)
	memBytes := func(cp int) int64 { return dec.CPBytes(cp) }

	switch cfg.Method {
	case TraditionalCaching:
		servers := make([]*tcfs.Server, cfg.NIOP)
		for i := range servers {
			servers[i] = tcfs.NewServer(m, m.IOPs[i], f, cfg.NCP, cfg.TC)
		}
		client := tcfs.NewClient(m, f, dec, servers, cfg.TC)
		runCP = func(p *sim.Proc, cp int) { client.TransferCP(p, cp, pat.Write) }
		endTime = client.EndTime
		collectTC = collectTCFrom(servers)
	case DiskDirected, DiskDirectedSort:
		prm := cfg.DD
		prm.Presort = cfg.Method == DiskDirectedSort
		servers := make([]*core.Server, cfg.NIOP)
		for i := range servers {
			servers[i] = core.NewServer(m, m.IOPs[i], f, prm)
		}
		client := core.NewClient(m, f, dec, servers, prm)
		runCP = func(p *sim.Proc, cp int) { client.CollectiveCP(p, cp, pat.Write) }
		endTime = client.EndTime
		collectDD = collectDDFrom(servers)
	case TwoPhase:
		servers := make([]*tcfs.Server, cfg.NIOP)
		for i := range servers {
			servers[i] = tcfs.NewServer(m, m.IOPs[i], f, cfg.NCP, cfg.TC)
		}
		client, err := twophase.NewClient(m, f, dec, servers, cfg.TC, cfg.TP)
		if err != nil {
			return nil, err
		}
		memBytes = client.MemBytes
		runCP = func(p *sim.Proc, cp int) { client.TransferCP(p, cp, pat.Write) }
		endTime = client.EndTime
		collectTC = collectTCFrom(servers)
	default:
		return nil, fmt.Errorf("exp: unknown method %v", cfg.Method)
	}

	// Allocate CP memory; writes start with the application data (the
	// deterministic file image) already in memory.
	for cp, node := range m.CPs {
		node.Mem = make([]byte, memBytes(cp))
	}
	if pat.Write {
		for cp, node := range m.CPs {
			for _, ch := range dec.Chunks(cp) {
				pfs.FillImage(node.Mem[ch.MemOff:ch.MemOff+ch.Len], ch.FileOff)
			}
		}
	} else {
		f.Preload()
	}

	for cp := range m.CPs {
		cp := cp
		eng.Go(cpProcName(cp), func(p *sim.Proc) {
			p.Sleep(cfg.BarrierCost) // collective entry cost (negligible, §3)
			runCP(p, cp)
		})
	}
	eng.Run()

	end := endTime()
	if end == 0 {
		return nil, fmt.Errorf("exp: %v/%s did not complete; blocked procs: %v",
			cfg.Method, cfg.Pattern, eng.BlockedProcs())
	}

	r := &Result{Config: cfg, Elapsed: end.Duration(), Events: eng.Events()}
	r.MovedBytes = 0
	for cp := 0; cp < cfg.NCP; cp++ {
		r.MovedBytes += dec.CPBytes(cp)
	}
	sec := r.Elapsed.Seconds()
	r.MBps = float64(cfg.FileBytes) / sec / MiB
	r.AggMBps = float64(r.MovedBytes) / sec / MiB

	if cfg.Verify {
		r.VerifyErrors, r.FirstBad = verify(cfg, pat, dec, f, m)
	}

	if collectTC != nil {
		collectTC(r)
	}
	if collectDD != nil {
		collectDD(r)
	}
	mc.collectSubstrate(r)
	return r, nil
}

// verify checks every byte that should have moved. Reads: each CP's
// buffer must hold the image of its chunks. Writes: the file read back
// from the disks must equal the image, block by block; the first bad
// block is reported as the CP chunk that wrote its first bad byte.
func verify(cfg Config, pat hpf.Pattern, dec *hpf.Decomp, f *pfs.File, m *cluster.Machine) (int, *VerifyFailure) {
	v := verifier{blockSize: int64(cfg.BlockSize)}
	if pat.Write {
		data := f.ReadBack()
		for off := 0; off < len(data); off += cfg.BlockSize {
			v.check(data[off:off+cfg.BlockSize], int64(off), VerifyFailure{Phase: -1, Request: -1, CP: -1, Write: true})
		}
		if v.first != nil {
			attributeWrite(v.first, dec, len(m.CPs))
		}
		return v.errs, v.first
	}
	for cp, node := range m.CPs {
		for _, ch := range dec.Chunks(cp) {
			v.check(node.Mem[ch.MemOff:ch.MemOff+ch.Len], ch.FileOff, VerifyFailure{Phase: -1, Request: -1, CP: cp})
		}
	}
	return v.errs, v.first
}

// attributeWrite narrows a failed block to the CP chunk that wrote its
// first bad byte. A byte no chunk covers keeps the block as its range.
func attributeWrite(fail *VerifyFailure, dec *hpf.Decomp, ncp int) {
	bad := fail.FileOff + fail.Index
	for cp := 0; cp < ncp; cp++ {
		for _, ch := range dec.Chunks(cp) {
			if ch.FileOff <= bad && bad < ch.FileOff+ch.Len {
				fail.CP, fail.FileOff, fail.Len, fail.Index = cp, ch.FileOff, ch.Len, bad-ch.FileOff
				return
			}
		}
	}
}

// TracedRun executes one experiment with a fresh event-trace recorder
// attached and returns both. The traced run fires the identical event
// sequence (and reports the identical throughput) as an untraced run of
// the same Config; the recorder holds the time-resolved view — disk
// busy intervals, queue depths, request latencies, per-link messages —
// that the Result's end-of-run totals summarize.
func TracedRun(cfg Config) (*Result, *trace.Recorder, error) {
	rec := trace.New()
	cfg.Trace = rec
	res, err := Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, rec, nil
}

// TraceTitle is the canonical title for a traced run's artifacts (the
// HTML trace viewer, the utilization timeline): one string shared by
// the CLI and the daemon so both emit byte-identical pages for the
// same configuration.
func TraceTitle(cfg Config) string {
	return fmt.Sprintf("%v %s, %s layout", cfg.Method, cfg.Pattern, cfg.Layout)
}

// Trial is the aggregate of replicated runs of one configuration.
type Trial struct {
	Results []*Result // per-trial results, in trial order
	MBps    []float64 // per-trial throughput, in trial order
	Mean    float64   // mean throughput over trials
	CV      float64   // coefficient of variation over trials
}

// Trials replicates cfg n times with derived seeds (varying the random
// disk layout and network jitter) and aggregates throughput. Runs are
// sequential; use Runner.Trials to replicate on a worker pool.
func Trials(cfg Config, n int) (*Trial, error) {
	return NewRunner(1, nil).Trials(cfg, n)
}
