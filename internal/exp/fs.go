package exp

import (
	"fmt"

	"ddio/internal/core"
	"ddio/internal/hpf"
	"ddio/internal/sim"
	"ddio/internal/tcfs"
	"ddio/internal/twophase"
	"ddio/internal/workload"
)

// phaseExec is one transfer bound to a method's client: the per-CP body
// and where the transfer's completion time is read from.
type phaseExec struct {
	runCP func(p *sim.Proc, cp int)
	end   func() sim.Time
}

// fileSystem is the seam between the run driver and the method under
// test. Its servers are built once per run, so caches and service pools
// persist across phases as they would on a real machine; each phase
// transfer gets its own client.
type fileSystem struct {
	// collective binds a collective read or write of acc, whose buffer
	// starts at base[cp] in each CP's memory. Two-phase I/O places its
	// staging area in mem, above everything placed so far.
	collective func(acc hpf.Access, write bool, base, mem []int64) phaseExec
	// stream binds a request-stream phase whose buffer starts at
	// base[cp]: traditional caching issues the requests one by one, the
	// other methods run collectives over the phase's slots (see
	// collectiveStream).
	stream func(ph *workload.ResolvedPhase, base, mem []int64) phaseExec
	// collect sums the servers' counters into the result.
	collect func(r *Result)
}

// newFileSystem builds cfg.Method's servers on the machine. It is the
// only place that tells the methods apart.
func newFileSystem(cfg *Config, mc *machine) (*fileSystem, error) {
	m, f := mc.m, mc.f
	switch cfg.Method {
	case TraditionalCaching:
		servers, collect := tcfsServers(cfg, mc)
		return &fileSystem{
			collective: func(acc hpf.Access, write bool, base, _ []int64) phaseExec {
				c := tcfs.NewClient(m, f, hpf.Offset(acc, base), servers, cfg.TC)
				return phaseExec{func(p *sim.Proc, cp int) { c.TransferCP(p, cp, write) }, c.EndTime}
			},
			stream: func(ph *workload.ResolvedPhase, base, _ []int64) phaseExec {
				c := tcfs.NewClient(m, f, nil, servers, cfg.TC)
				reqs := streamReqs(ph, base)
				return phaseExec{func(p *sim.Proc, cp int) { c.StreamCP(p, cp, reqs[cp]) }, c.EndTime}
			},
			collect: collect,
		}, nil
	case TwoPhase:
		servers, collect := tcfsServers(cfg, mc)
		fs := &fileSystem{
			collective: func(acc hpf.Access, write bool, base, mem []int64) phaseExec {
				conf := conforming(acc, cfg.NCP)
				stage := hpf.Offset(conf, place(mem, conf.CPBytes))
				c := twophase.NewAccessClient(m, f, hpf.Offset(acc, base), stage, servers, cfg.TC, cfg.TP)
				return phaseExec{func(p *sim.Proc, cp int) { c.TransferCP(p, cp, write) }, c.EndTime}
			},
			collect: collect,
		}
		fs.stream = fs.collectiveStream
		return fs, nil
	case DiskDirected, DiskDirectedSort:
		prm := cfg.DD
		prm.Presort = cfg.Method == DiskDirectedSort
		servers := make([]*core.Server, cfg.NIOP)
		for i := range servers {
			servers[i] = core.NewServer(m, m.IOPs[i], f, prm)
		}
		fs := &fileSystem{
			collective: func(acc hpf.Access, write bool, base, _ []int64) phaseExec {
				c := core.NewClient(m, f, hpf.Offset(acc, base), servers, prm)
				return phaseExec{func(p *sim.Proc, cp int) { c.CollectiveCP(p, cp, write) }, c.EndTime}
			},
			collect: func(r *Result) {
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
			},
		}
		fs.stream = fs.collectiveStream
		return fs, nil
	}
	return nil, fmt.Errorf("exp: unknown method %v", cfg.Method)
}

// tcfsServers builds the traditional-caching IOP servers that both
// traditional caching and two-phase I/O run on, and the function that
// sums their counters into a result.
func tcfsServers(cfg *Config, mc *machine) ([]*tcfs.Server, func(r *Result)) {
	servers := make([]*tcfs.Server, cfg.NIOP)
	for i := range servers {
		servers[i] = tcfs.NewServer(mc.m, mc.m.IOPs[i], mc.f, cfg.NCP, cfg.TC)
	}
	return servers, func(r *Result) {
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

// conforming returns two-phase I/O's staging distribution for acc: a
// 1-D BLOCK decomposition of the records for a matrix transfer, the
// merged extents dealt out by bytes for a request set.
func conforming(acc hpf.Access, ncp int) hpf.Access {
	if dec, ok := acc.(*hpf.Decomp); ok {
		// Cannot fail: a valid decomposition has at least one record of
		// at least one byte, and ncp is at least one.
		conf, _ := hpf.New1D(dec.NumRecords(), hpf.Block, dec.RecordSize, ncp)
		return conf
	}
	return workload.Conforming(acc.(*workload.SlotAccess), ncp)
}

// place reserves size(cp) bytes in each CP's memory above the mem[cp]
// bytes placed so far, and returns where each reservation starts.
func place(mem []int64, size func(cp int) int64) []int64 {
	base := append([]int64(nil), mem...)
	for cp := range mem {
		mem[cp] += size(cp)
	}
	return base
}

// collectiveStream binds a request-stream phase to collectives over
// its read and write slots. A disk-directed or two-phase collective
// cannot start before the phase's requests exist, so each CP waits out
// its arrival makespan, then reads collectively, then writes
// collectively.
func (fs *fileSystem) collectiveStream(ph *workload.ResolvedPhase, base, mem []int64) phaseExec {
	var steps []phaseExec
	if ph.ReadAcc != nil {
		steps = append(steps, fs.collective(ph.ReadAcc, false, base, mem))
	}
	if ph.WriteAcc != nil {
		steps = append(steps, fs.collective(ph.WriteAcc, true, base, mem))
	}
	delay := ph.Delay
	return phaseExec{
		runCP: func(p *sim.Proc, cp int) {
			if delay[cp] > 0 {
				p.Sleep(delay[cp])
			}
			for _, c := range steps {
				c.runCP(p, cp)
			}
		},
		end: steps[len(steps)-1].end,
	}
}
