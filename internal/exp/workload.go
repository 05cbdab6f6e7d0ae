package exp

import (
	"ddio/internal/cluster"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/tcfs"
	"ddio/internal/workload"
)

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

// phaseRanges calls fn for each of cp's ranges in a phase, with their
// buffer-relative memory offsets: a collective's chunks (request -1),
// or a stream's requests in issue order.
func phaseRanges(ph *workload.ResolvedPhase, cp int, fn func(req int, write bool, r hpf.Chunk)) {
	if ph.Collective {
		for _, ch := range ph.Dec.Chunks(cp) {
			fn(-1, ph.Write, ch)
		}
		return
	}
	for k, rq := range ph.Streams[cp] {
		fn(k, rq.Write, hpf.Chunk{FileOff: rq.FileOff, MemOff: rq.MemOff, Len: rq.Len})
	}
}

// fillWrites seeds the memory behind a phase's writes with the
// deterministic file image, so what lands on disk is verifiable.
func fillWrites(ph *workload.ResolvedPhase, base []int64, cps []*cluster.Node) {
	if ph.Collective && !ph.Write {
		return
	}
	for cp, node := range cps {
		phaseRanges(ph, cp, func(_ int, write bool, r hpf.Chunk) {
			if write {
				off := base[cp] + r.MemOff
				pfs.FillImage(node.Mem[off:off+r.Len], r.FileOff)
			}
		})
	}
}

// verifyPhases checks every byte the phases moved: read buffers
// against the file image, written file ranges against the disks' final
// contents. A collective write covers the whole file, so it is checked
// block by block, and its first bad block is narrowed to the CP chunk
// that wrote the first bad byte. A classic run's failures name no phase
// (Phase -1).
func verifyPhases(res *workload.Resolved, appBase [][]int64, f *pfs.File, m *cluster.Machine, classic bool) (int, *VerifyFailure) {
	v := verifier{blockSize: int64(f.BlockSize)}
	var readBack []byte
	onDisk := func(off, n int64) []byte {
		if readBack == nil {
			readBack = f.ReadBack()
		}
		return readBack[off : off+n]
	}
	for i := range res.Phases {
		ph := &res.Phases[i]
		phase := i
		if classic {
			phase = -1
		}
		if ph.Collective && ph.Write {
			first := v.first
			bs := int64(f.BlockSize)
			for off := int64(0); off < f.Size(); off += bs {
				v.check(onDisk(off, bs), off, VerifyFailure{Phase: phase, Request: -1, CP: -1, Write: true})
			}
			if first == nil && v.first != nil {
				attributeWrite(v.first, ph.Dec, len(m.CPs))
			}
			continue
		}
		for cp, node := range m.CPs {
			phaseRanges(ph, cp, func(k int, write bool, r hpf.Chunk) {
				whose := VerifyFailure{Phase: phase, Request: k, CP: cp, Write: write}
				if write {
					v.check(onDisk(r.FileOff, r.Len), r.FileOff, whose)
					return
				}
				off := appBase[i][cp] + r.MemOff
				v.check(node.Mem[off:off+r.Len], r.FileOff, whose)
			})
		}
	}
	return v.errs, v.first
}
