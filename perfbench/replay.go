package main

import (
	"fmt"
	"time"

	"ddio/internal/bus"
	"ddio/internal/cluster"
	"ddio/internal/core"
	"ddio/internal/disk"
	"ddio/internal/exp"
	"ddio/internal/fault"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/sim"
	"ddio/internal/tcfs"
	"ddio/internal/twophase"
)

// layers is the host time and allocation of replayed cells, split at the
// public entry points exp.Run calls, in the order it calls them.
type layers struct {
	decomp  phase // hpf pattern parse and decomposition
	build   phase // sim engine, cluster, buses, disks (constructors)
	layout  phase // pfs.NewFile: block placement
	fsSetup phase // file-system server and client constructors
	fill    phase // CP memory plus pfs.FillImage or File.Preload
	run     phase // proc spawns plus Engine.Run
	verify  phase // File.ReadBack / pfs.VerifyImage
	other   phase // validation, metric collection, Engine.Close
	total   time.Duration
	cells   int
}

// covered is the host time the timed calls account for.
func (l *layers) covered() time.Duration {
	return l.decomp.dur + l.build.dur + l.layout.dur + l.fsSetup.dur +
		l.fill.dur + l.run.dur + l.verify.dur
}

// cellOutcome is what a replayed cell must share with exp.Run's Result
// for the same Config.
type cellOutcome struct {
	Events       int64
	Elapsed      time.Duration
	VerifyErrors int
	NetMsgs      int64
	DiskReads    int64
	DiskWrites   int64
}

func outcomeOf(r *exp.Result) cellOutcome {
	return cellOutcome{r.Events, r.Elapsed, r.VerifyErrors, r.NetMsgs, r.Disk.Reads, r.Disk.Writes}
}

// replayable reports whether replayCell reproduces exp.Run for cfg: a
// classic whole-file transfer. Workload runs go through an unexported
// driver the benchmark cannot split from outside.
func replayable(cfg exp.Config) bool { return !cfg.Workload.Enabled() }

// replayCell executes one classic cell by calling, in exp.Run's order,
// the same public constructors and entry points exp.Run calls, and
// charges each call to its layer in l.
func replayCell(cfg exp.Config, l *layers) (cellOutcome, error) {
	t0 := time.Now()
	defer func() { l.total += time.Since(t0); l.cells++ }()
	var out cellOutcome
	var err error
	l.other.span(func() { err = cfg.Validate() })
	if err != nil {
		return out, err
	}

	var pat hpf.Pattern
	var dec *hpf.Decomp
	l.decomp.span(func() {
		if pat, err = hpf.ParsePattern(cfg.Pattern); err == nil {
			dec, err = pat.Decomp(cfg.FileBytes, cfg.RecordSize, cfg.NCP)
		}
	})
	if err != nil {
		return out, err
	}

	var (
		eng   *sim.Engine
		rng   *sim.Rand
		inj   *fault.Injector
		m     *cluster.Machine
		buses []*bus.Bus
		disks []*disk.Disk
	)
	l.build.span(func() {
		eng = sim.NewEngine()
		rng = sim.NewRand(cfg.Seed)
		inj = fault.NewInjector(cfg.Faults, rng, cfg.NDisks)
		if pol := inj.Retry(); pol.Enabled() {
			cfg.TC.Retry = pol
			cfg.DD.Retry = pol
		}
		m = cluster.New(eng, cfg.Net, cfg.NCP, cfg.NIOP, rng)
		m.InjectFaults(inj)
		buses = make([]*bus.Bus, cfg.NIOP)
		for i := range buses {
			buses[i] = bus.New(eng, fmt.Sprintf("bus%d", i), cfg.BusBandwidth, cfg.BusOverhead)
		}
		disks = make([]*disk.Disk, cfg.NDisks)
		for d := range disks {
			disks[d] = disk.New(eng, fmt.Sprintf("d%d", d), cfg.Disk, buses[d%cfg.NIOP], cfg.DiskSched)
			disks[d].SetFaults(inj.Disk(d))
		}
	})
	defer func() { l.other.span(eng.Close) }()

	var f *pfs.File
	l.layout.span(func() {
		f, err = pfs.NewFile(disks, cfg.BlockSize, cfg.NumBlocks(), cfg.Layout, rng)
	})
	if err != nil {
		return out, err
	}

	var (
		runCP    func(p *sim.Proc, cp int)
		endTime  func() sim.Time
		memBytes = dec.CPBytes
	)
	l.fsSetup.span(func() {
		switch cfg.Method {
		case exp.TraditionalCaching, exp.TwoPhase:
			tcs := make([]*tcfs.Server, cfg.NIOP)
			for i := range tcs {
				tcs[i] = tcfs.NewServer(m, m.IOPs[i], f, cfg.NCP, cfg.TC)
			}
			if cfg.Method == exp.TraditionalCaching {
				c := tcfs.NewClient(m, f, dec, tcs, cfg.TC)
				runCP = func(p *sim.Proc, cp int) { c.TransferCP(p, cp, pat.Write) }
				endTime = c.EndTime
				return
			}
			var c *twophase.Client
			if c, err = twophase.NewClient(m, f, dec, tcs, cfg.TC, cfg.TP); err == nil {
				memBytes = c.MemBytes
				runCP = func(p *sim.Proc, cp int) { c.TransferCP(p, cp, pat.Write) }
				endTime = c.EndTime
			}
		case exp.DiskDirected, exp.DiskDirectedSort:
			prm := cfg.DD
			prm.Presort = cfg.Method == exp.DiskDirectedSort
			dds := make([]*core.Server, cfg.NIOP)
			for i := range dds {
				dds[i] = core.NewServer(m, m.IOPs[i], f, prm)
			}
			c := core.NewClient(m, f, dec, dds, prm)
			runCP = func(p *sim.Proc, cp int) { c.CollectiveCP(p, cp, pat.Write) }
			endTime = c.EndTime
		default:
			err = fmt.Errorf("perfbench: unknown method %v", cfg.Method)
		}
	})
	if err != nil {
		return out, err
	}

	l.fill.span(func() {
		for cp, node := range m.CPs {
			node.Mem = make([]byte, memBytes(cp))
		}
		if !pat.Write {
			f.Preload()
			return
		}
		for cp, node := range m.CPs {
			for _, ch := range dec.Chunks(cp) {
				pfs.FillImage(node.Mem[ch.MemOff:ch.MemOff+ch.Len], ch.FileOff)
			}
		}
	})

	l.run.span(func() {
		for cp := range m.CPs {
			cp := cp
			eng.Go(fmt.Sprintf("cp%d", cp), func(p *sim.Proc) {
				p.Sleep(cfg.BarrierCost)
				runCP(p, cp)
			})
		}
		eng.Run()
	})
	end := endTime()
	if end == 0 {
		return out, fmt.Errorf("perfbench: replay of %v/%s did not complete", cfg.Method, cfg.Pattern)
	}
	out.Events, out.Elapsed = eng.Events(), end.Duration()

	if cfg.Verify {
		l.verify.span(func() { out.VerifyErrors = verifyCell(cfg, pat, dec, f, m) })
	}

	l.other.span(func() {
		out.NetMsgs = m.Net.Messages()
		for _, d := range disks {
			dm := d.Metrics()
			out.DiskReads += dm.Reads
			out.DiskWrites += dm.Writes
		}
	})
	return out, nil
}

// verifyCell is exp.Run's end-to-end check: reads compare every CP
// buffer against the file image, writes read the file back.
func verifyCell(cfg exp.Config, pat hpf.Pattern, dec *hpf.Decomp, f *pfs.File, m *cluster.Machine) int {
	errs := 0
	if pat.Write {
		data := f.ReadBack()
		for off := 0; off < len(data); off += cfg.BlockSize {
			if pfs.VerifyImage(data[off:off+cfg.BlockSize], int64(off)) >= 0 {
				errs++
			}
		}
		return errs
	}
	for cp, node := range m.CPs {
		for _, ch := range dec.Chunks(cp) {
			if pfs.VerifyImage(node.Mem[ch.MemOff:ch.MemOff+ch.Len], ch.FileOff) >= 0 {
				errs++
			}
		}
	}
	return errs
}
