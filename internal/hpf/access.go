package hpf

// Access is the abstract file-access pattern the three file-system
// methods consume: a per-CP chunk list (what a traditional client must
// request piece by piece) and a file-range→runs view (what a
// disk-directed IOP scatters or gathers per block). Decomp is the
// matrix-decomposition implementation from the paper; the workload
// layer provides request-stream implementations over the same contract.
// Chunks and RunsInRange return a slice the caller owns: each call
// builds it afresh, so the caller may modify it.
type Access interface {
	// Chunks returns cp's contiguous file pieces in ascending file
	// order, with their locations in cp's memory buffer.
	Chunks(cp int) []Chunk
	// RunsInRange returns the runs covering file range [off, off+n) in
	// ascending file order.
	RunsInRange(off, n int64) []Run
	// CPBytes returns the size of cp's memory buffer in bytes.
	CPBytes(cp int) int64
	// Partial reports whether the pattern may leave whole file blocks
	// untouched. A disk-directed IOP plans every local block for a
	// full-file access; for a partial access it first filters its plan
	// to blocks the pattern actually covers.
	Partial() bool
}

// Partial reports false: a matrix decomposition always covers the whole
// file, so disk-directed plans need no filtering.
func (d *Decomp) Partial() bool { return false }

var _ Access = (*Decomp)(nil)

// Offset shifts an access's memory addressing by a per-CP base,
// turning buffer-relative offsets into absolute CP-memory addresses (a
// run stacks several phases' buffers, and two-phase I/O its staging
// areas, in one CP memory). A nil access, or a nil or all-zero base,
// returns acc unchanged.
func Offset(acc Access, base []int64) Access {
	all0 := true
	for _, b := range base {
		if b != 0 {
			all0 = false
			break
		}
	}
	if acc == nil || all0 {
		return acc
	}
	return &offsetAccess{acc: acc, base: base}
}

type offsetAccess struct {
	acc  Access
	base []int64
}

func (o *offsetAccess) baseOf(cp int) int64 {
	if cp < len(o.base) {
		return o.base[cp]
	}
	return 0
}

// Chunks and RunsInRange shift the slices the wrapped access returns
// in place: the caller owns them (see Access).
func (o *offsetAccess) Chunks(cp int) []Chunk {
	out := o.acc.Chunks(cp)
	b := o.baseOf(cp)
	for i := range out {
		out[i].MemOff += b
	}
	return out
}

func (o *offsetAccess) RunsInRange(off, n int64) []Run {
	out := o.acc.RunsInRange(off, n)
	for i := range out {
		out[i].MemOff += o.baseOf(out[i].CP)
	}
	return out
}

func (o *offsetAccess) CPBytes(cp int) int64 { return o.acc.CPBytes(cp) }
func (o *offsetAccess) Partial() bool        { return o.acc.Partial() }
