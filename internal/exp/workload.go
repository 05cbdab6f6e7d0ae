package exp

import (
	"fmt"

	"ddio/internal/cluster"
	"ddio/internal/core"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/sim"
	"ddio/internal/tcfs"
	"ddio/internal/trace"
	"ddio/internal/twophase"
	"ddio/internal/workload"
)

// phaseExec is one resolved workload phase bound to a method: the
// per-CP body and where the phase's completion time is read from.
type phaseExec struct {
	runCP func(p *sim.Proc, cp int)
	end   func() sim.Time
}

// runWorkload executes cfg's workload: every phase in order, separated
// by barriers, through the selected file-system method. The machine is
// built exactly as for a classic run; all workload randomness comes
// from dedicated "wl:*" sub-streams of the run seed, so the substrate
// draws are untouched and results are identical for any worker count.
func runWorkload(cfg Config) (*Result, error) {
	shape := workload.Shape{
		NCP:        cfg.NCP,
		FileBytes:  cfg.FileBytes,
		BlockSize:  cfg.BlockSize,
		RecordSize: cfg.RecordSize,
	}
	// Workload runs always time their requests (open-arrival runs are
	// latency studies): when the caller did not attach a recorder, attach
	// one filtered to request-end events — one retained event per
	// request. Recorders are passive, so the event sequence and every
	// throughput metric are identical either way.
	latRec := cfg.Trace
	if latRec == nil {
		latRec = trace.NewFiltered(trace.KindReqEnd)
		cfg.Trace = latRec
	}
	mc, err := buildMachine(&cfg)
	if err != nil {
		return nil, err
	}
	defer mc.Close()
	eng, m, f := mc.eng, mc.m, mc.f

	res, err := cfg.Workload.Resolve(shape, mc.rng)
	if err != nil {
		return nil, err
	}

	// Per-CP memory layout: each phase's application buffer, then (for
	// two-phase I/O) its staging areas, stacked in phase order.
	twoPhase := cfg.Method == TwoPhase
	appBase := make([][]int64, len(res.Phases))   // [phase][cp]
	stageBase := make([][]int64, len(res.Phases)) // [phase][cp] read staging
	stageBaseW := make([][]int64, len(res.Phases))
	confs := make([]*hpf.Decomp, len(res.Phases)) // collective conforming decomp
	confR := make([]*workload.SlotAccess, len(res.Phases))
	confW := make([]*workload.SlotAccess, len(res.Phases))
	cur := make([]int64, cfg.NCP)
	for i := range res.Phases {
		ph := &res.Phases[i]
		appBase[i] = append([]int64(nil), cur...)
		for cp := 0; cp < cfg.NCP; cp++ {
			cur[cp] += phaseAppBytes(ph, cp)
		}
		if !twoPhase {
			continue
		}
		if ph.Collective {
			rec := ph.Dec.RecordSize
			conf, err := hpf.New1D(int(cfg.FileBytes/int64(rec)), hpf.Block, rec, cfg.NCP)
			if err != nil {
				return nil, err
			}
			confs[i] = conf
			stageBase[i] = append([]int64(nil), cur...)
			for cp := 0; cp < cfg.NCP; cp++ {
				cur[cp] += conf.CPBytes(cp)
			}
			continue
		}
		if ph.ReadAcc != nil {
			confR[i] = workload.Conforming(ph.ReadAcc, cfg.NCP)
			stageBase[i] = append([]int64(nil), cur...)
			for cp := 0; cp < cfg.NCP; cp++ {
				cur[cp] += confR[i].CPBytes(cp)
			}
		}
		if ph.WriteAcc != nil {
			confW[i] = workload.Conforming(ph.WriteAcc, cfg.NCP)
			stageBaseW[i] = append([]int64(nil), cur...)
			for cp := 0; cp < cfg.NCP; cp++ {
				cur[cp] += confW[i].CPBytes(cp)
			}
		}
	}
	for cp, node := range m.CPs {
		node.Mem = make([]byte, cur[cp])
	}

	// Build the method's servers once (caches and service pools persist
	// across phases, as they would on a real machine), then one client
	// per phase transfer.
	phases := make([]phaseExec, len(res.Phases))
	var collectTC, collectDD func(r *Result)
	switch cfg.Method {
	case TraditionalCaching:
		servers := make([]*tcfs.Server, cfg.NIOP)
		for i := range servers {
			servers[i] = tcfs.NewServer(m, m.IOPs[i], f, cfg.NCP, cfg.TC)
		}
		collectTC = collectTCFrom(servers)
		for i := range res.Phases {
			ph := &res.Phases[i]
			if ph.Collective {
				client := tcfs.NewClient(m, f, ph.Dec, servers, cfg.TC)
				client.SetMemBase(appBase[i])
				write := ph.Write
				phases[i] = phaseExec{
					runCP: func(p *sim.Proc, cp int) { client.TransferCP(p, cp, write) },
					end:   client.EndTime,
				}
				continue
			}
			client := tcfs.NewClient(m, f, nil, servers, cfg.TC)
			streams := streamReqs(ph, appBase[i])
			phases[i] = phaseExec{
				runCP: func(p *sim.Proc, cp int) { client.StreamCP(p, cp, streams[cp]) },
				end:   client.EndTime,
			}
		}
	case DiskDirected, DiskDirectedSort:
		prm := cfg.DD
		prm.Presort = cfg.Method == DiskDirectedSort
		servers := make([]*core.Server, cfg.NIOP)
		for i := range servers {
			servers[i] = core.NewServer(m, m.IOPs[i], f, prm)
		}
		collectDD = collectDDFrom(servers)
		for i := range res.Phases {
			ph := &res.Phases[i]
			if ph.Collective {
				client := core.NewClient(m, f, workload.Offset(ph.Dec, appBase[i]), servers, prm)
				write := ph.Write
				phases[i] = phaseExec{
					runCP: func(p *sim.Proc, cp int) { client.CollectiveCP(p, cp, write) },
					end:   client.EndTime,
				}
				continue
			}
			// A disk-directed collective cannot start before the phase's
			// requests exist: each CP waits out its arrival makespan,
			// then reads collectively, then writes collectively.
			var rdClient, wrClient *core.Client
			if ph.ReadAcc != nil {
				rdClient = core.NewClient(m, f, workload.Offset(ph.ReadAcc, appBase[i]), servers, prm)
			}
			if ph.WriteAcc != nil {
				wrClient = core.NewClient(m, f, workload.Offset(ph.WriteAcc, appBase[i]), servers, prm)
			}
			delay := ph.Delay
			phases[i] = phaseExec{
				runCP: func(p *sim.Proc, cp int) {
					if delay[cp] > 0 {
						p.Sleep(delay[cp])
					}
					if rdClient != nil {
						rdClient.CollectiveCP(p, cp, false)
					}
					if wrClient != nil {
						wrClient.CollectiveCP(p, cp, true)
					}
				},
				end: func() sim.Time {
					if wrClient != nil {
						return wrClient.EndTime()
					}
					return rdClient.EndTime()
				},
			}
		}
	case TwoPhase:
		servers := make([]*tcfs.Server, cfg.NIOP)
		for i := range servers {
			servers[i] = tcfs.NewServer(m, m.IOPs[i], f, cfg.NCP, cfg.TC)
		}
		collectTC = collectTCFrom(servers)
		for i := range res.Phases {
			ph := &res.Phases[i]
			if ph.Collective {
				client := twophase.NewAccessClient(m, f,
					workload.Offset(ph.Dec, appBase[i]),
					workload.Offset(confs[i], stageBase[i]),
					servers, cfg.TC, cfg.TP)
				write := ph.Write
				phases[i] = phaseExec{
					runCP: func(p *sim.Proc, cp int) { client.TransferCP(p, cp, write) },
					end:   client.EndTime,
				}
				continue
			}
			var rdClient, wrClient *twophase.Client
			if ph.ReadAcc != nil {
				rdClient = twophase.NewAccessClient(m, f,
					workload.Offset(ph.ReadAcc, appBase[i]),
					workload.Offset(confR[i], stageBase[i]),
					servers, cfg.TC, cfg.TP)
			}
			if ph.WriteAcc != nil {
				wrClient = twophase.NewAccessClient(m, f,
					workload.Offset(ph.WriteAcc, appBase[i]),
					workload.Offset(confW[i], stageBaseW[i]),
					servers, cfg.TC, cfg.TP)
			}
			delay := ph.Delay
			phases[i] = phaseExec{
				runCP: func(p *sim.Proc, cp int) {
					if delay[cp] > 0 {
						p.Sleep(delay[cp])
					}
					if rdClient != nil {
						rdClient.TransferCP(p, cp, false)
					}
					if wrClient != nil {
						wrClient.TransferCP(p, cp, true)
					}
				},
				end: func() sim.Time {
					if wrClient != nil {
						return wrClient.EndTime()
					}
					return rdClient.EndTime()
				},
			}
		}
	default:
		return nil, fmt.Errorf("exp: unknown method %v", cfg.Method)
	}

	// Preload the file image when anything reads; seed write buffers
	// with the image of the ranges they will write (so written bytes
	// are verifiable end to end).
	anyRead := false
	for i := range res.Phases {
		ph := &res.Phases[i]
		if (ph.Collective && !ph.Write) || ph.ReadAcc != nil {
			anyRead = true
		}
		fillWrites(ph, appBase[i], m.CPs)
	}
	if anyRead {
		f.Preload()
	}

	for cp := range m.CPs {
		cp := cp
		eng.Go(cpProcName(cp), func(p *sim.Proc) {
			for i := range phases {
				p.Sleep(cfg.BarrierCost) // collective entry cost per phase
				phases[i].runCP(p, cp)
			}
		})
	}
	eng.Run()

	var end sim.Time
	for i := range phases {
		if t := phases[i].end(); t > end {
			end = t
		}
	}
	if end == 0 {
		return nil, fmt.Errorf("exp: %v workload %q did not complete; blocked procs: %v",
			cfg.Method, cfg.Workload.Summary(), eng.BlockedProcs())
	}

	r := &Result{Config: cfg, Elapsed: end.Duration(), Events: eng.Events()}
	r.MovedBytes = res.Bytes
	sec := r.Elapsed.Seconds()
	// For request streams the paper's file-bytes-over-time metric is
	// meaningless; both throughput columns report bytes actually moved.
	r.MBps = float64(r.MovedBytes) / sec / MiB
	r.AggMBps = r.MBps
	r.ReqLatency = latRec.RequestLatencies()

	if cfg.Verify {
		r.VerifyErrors, r.FirstBad = verifyWorkload(res, appBase, f, m)
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

// phaseAppBytes returns cp's application-buffer size for one phase.
func phaseAppBytes(ph *workload.ResolvedPhase, cp int) int64 {
	if ph.Collective {
		return ph.Dec.CPBytes(cp)
	}
	var n int64
	for _, rq := range ph.Streams[cp] {
		if end := rq.MemOff + rq.Len; end > n {
			n = end
		}
	}
	return n
}

// streamReqs converts a phase's per-CP requests into tcfs stream
// requests with absolute memory offsets.
func streamReqs(ph *workload.ResolvedPhase, base []int64) [][]tcfs.StreamReq {
	out := make([][]tcfs.StreamReq, len(ph.Streams))
	for cp, reqs := range ph.Streams {
		s := make([]tcfs.StreamReq, len(reqs))
		for k, rq := range reqs {
			s[k] = tcfs.StreamReq{
				Write:   rq.Write,
				FileOff: rq.FileOff,
				Len:     rq.Len,
				MemOff:  base[cp] + rq.MemOff,
				At:      rq.At,
				Think:   rq.Think,
			}
		}
		out[cp] = s
	}
	return out
}

// fillWrites seeds the memory behind a phase's write requests (and
// write-collective chunks) with the deterministic file image, so what
// lands on disk is verifiable.
func fillWrites(ph *workload.ResolvedPhase, base []int64, cps []*cluster.Node) {
	if ph.Collective {
		if !ph.Write {
			return
		}
		for cp, node := range cps {
			for _, ch := range ph.Dec.Chunks(cp) {
				off := base[cp] + ch.MemOff
				pfs.FillImage(node.Mem[off:off+ch.Len], ch.FileOff)
			}
		}
		return
	}
	for cp, node := range cps {
		for _, rq := range ph.Streams[cp] {
			if !rq.Write {
				continue
			}
			off := base[cp] + rq.MemOff
			pfs.FillImage(node.Mem[off:off+rq.Len], rq.FileOff)
		}
	}
}

// verifyWorkload checks every byte the workload moved: read buffers
// against the file image, written file ranges against the disks' final
// contents.
func verifyWorkload(res *workload.Resolved, appBase [][]int64, f *pfs.File, m *cluster.Machine) (int, *VerifyFailure) {
	v := verifier{blockSize: int64(f.BlockSize)}
	var readBack []byte
	for i := range res.Phases {
		ph := &res.Phases[i]
		base := appBase[i]
		if ph.Collective {
			if ph.Write {
				if readBack == nil {
					readBack = f.ReadBack()
				}
				for cp := 0; cp < len(m.CPs); cp++ {
					for _, ch := range ph.Dec.Chunks(cp) {
						v.check(readBack[ch.FileOff:ch.FileOff+ch.Len], ch.FileOff,
							VerifyFailure{Phase: i, Request: -1, CP: cp, Write: true})
					}
				}
				continue
			}
			for cp, node := range m.CPs {
				for _, ch := range ph.Dec.Chunks(cp) {
					off := base[cp] + ch.MemOff
					v.check(node.Mem[off:off+ch.Len], ch.FileOff, VerifyFailure{Phase: i, Request: -1, CP: cp})
				}
			}
			continue
		}
		for cp, node := range m.CPs {
			for k, rq := range ph.Streams[cp] {
				whose := VerifyFailure{Phase: i, Request: k, CP: cp, Write: rq.Write}
				if rq.Write {
					if readBack == nil {
						readBack = f.ReadBack()
					}
					v.check(readBack[rq.FileOff:rq.FileOff+rq.Len], rq.FileOff, whose)
					continue
				}
				off := base[cp] + rq.MemOff
				v.check(node.Mem[off:off+rq.Len], rq.FileOff, whose)
			}
		}
	}
	return v.errs, v.first
}
