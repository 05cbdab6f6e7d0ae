package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ddio/internal/hpf"
)

func TestSlotAccessBasics(t *testing.T) {
	a := NewSlotAccess([]Slot{
		{CP: 1, FileOff: 100, MemOff: 0, Len: 50},
		{CP: 0, FileOff: 200, MemOff: 10, Len: 30},
		{CP: 0, FileOff: 0, MemOff: 40, Len: 20},
	}, 2)
	if a.NCP() != 2 {
		t.Fatalf("NCP = %d", a.NCP())
	}
	if got := a.Bytes(); got != 100 {
		t.Errorf("Bytes = %d, want 100", got)
	}
	// Per-CP slots sort by file offset regardless of input order.
	if s := a.Slots(0); s[0].FileOff != 0 || s[1].FileOff != 200 {
		t.Errorf("CP0 slots unsorted: %+v", s)
	}
	if got := a.CPBytes(0); got != 60 {
		t.Errorf("CPBytes(0) = %d, want 60", got)
	}
	if got := a.CPBytes(1); got != 50 {
		t.Errorf("CPBytes(1) = %d, want 50", got)
	}
	if got := a.CPBytes(7); got != 0 {
		t.Errorf("CPBytes out of range = %d", got)
	}
	if !a.Partial() {
		t.Error("SlotAccess must report Partial")
	}
	if got := a.Chunks(1); len(got) != 1 || got[0] != (hpf.Chunk{FileOff: 100, MemOff: 0, Len: 50}) {
		t.Errorf("Chunks(1) = %+v", got)
	}
}

func TestSlotAccessRunsInRange(t *testing.T) {
	// Two overlapping reads of the same range on different CPs plus a
	// disjoint slot: every overlapping slot yields its own clipped run.
	a := NewSlotAccess([]Slot{
		{CP: 0, FileOff: 0, MemOff: 0, Len: 100},
		{CP: 1, FileOff: 50, MemOff: 0, Len: 100},
		{CP: 0, FileOff: 300, MemOff: 100, Len: 10},
	}, 2)
	got := a.RunsInRange(40, 40)
	want := []hpf.Run{
		{CP: 0, FileOff: 40, MemOff: 40, Len: 40},
		{CP: 1, FileOff: 50, MemOff: 0, Len: 30},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RunsInRange(40,40) = %+v, want %+v", got, want)
	}
	if got := a.RunsInRange(150, 100); got != nil {
		t.Errorf("uncovered range produced runs: %+v", got)
	}
	if got := a.RunsInRange(0, 0); got != nil {
		t.Errorf("empty range produced runs: %+v", got)
	}
}

func TestOffsetAccess(t *testing.T) {
	a := NewSlotAccess([]Slot{
		{CP: 0, FileOff: 0, MemOff: 0, Len: 10},
		{CP: 1, FileOff: 10, MemOff: 0, Len: 10},
	}, 2)
	if got := hpf.Offset(a, []int64{0, 0}); got != hpf.Access(a) {
		t.Error("all-zero base must return the access unchanged")
	}
	if got := hpf.Offset(nil, []int64{5}); got != nil {
		t.Error("nil access must stay nil")
	}
	o := hpf.Offset(a, []int64{100, 200})
	if got := o.Chunks(0)[0].MemOff; got != 100 {
		t.Errorf("CP0 chunk MemOff = %d, want 100", got)
	}
	if got := o.Chunks(1)[0].MemOff; got != 200 {
		t.Errorf("CP1 chunk MemOff = %d, want 200", got)
	}
	runs := o.RunsInRange(0, 20)
	if len(runs) != 2 || runs[0].MemOff != 100 || runs[1].MemOff != 200 {
		t.Errorf("offset runs = %+v", runs)
	}
	// Footprints and partiality pass through untouched.
	if o.CPBytes(0) != a.CPBytes(0) || !o.Partial() {
		t.Error("offset wrapper changed CPBytes or Partial")
	}
}

func TestConforming(t *testing.T) {
	// Overlapping and duplicate ranges merge into a disjoint union that
	// is dealt over the CPs byte-balanced and covers every input byte.
	a := NewSlotAccess([]Slot{
		{CP: 0, FileOff: 0, MemOff: 0, Len: 100},
		{CP: 1, FileOff: 50, MemOff: 0, Len: 100}, // overlaps the first
		{CP: 2, FileOff: 50, MemOff: 0, Len: 10},  // duplicate inside
		{CP: 0, FileOff: 300, MemOff: 100, Len: 50},
	}, 4)
	conf := Conforming(a, 4)
	// Union = [0,150) + [300,350) = 200 bytes.
	if got := conf.Bytes(); got != 200 {
		t.Fatalf("conforming bytes = %d, want 200", got)
	}
	covered := make(map[int64]int)
	var total int64
	for cp := 0; cp < 4; cp++ {
		if got := conf.CPBytes(cp); got != 50 {
			t.Errorf("CP%d staging bytes = %d, want 50", cp, got)
		}
		var mem int64
		for _, s := range conf.Slots(cp) {
			if s.MemOff != mem {
				t.Errorf("CP%d staging not cumulative: slot %+v at mem %d", cp, s, mem)
			}
			mem += s.Len
			total += s.Len
			for b := s.FileOff; b < s.FileOff+s.Len; b++ {
				covered[b]++
			}
		}
	}
	if total != 200 || len(covered) != 200 {
		t.Fatalf("conforming covers %d bytes in %d positions, want 200/200", total, len(covered))
	}
	for b, n := range covered {
		if n != 1 {
			t.Fatalf("byte %d covered %d times", b, n)
		}
	}
	// Original ranges must be found in the staging area.
	if runs := conf.RunsInRange(120, 30); len(runs) == 0 {
		t.Error("union range [120,150) not covered")
	}
}

// byteMap is an access's file→memory mapping, byte by byte: one
// packed (CP, file byte, memory byte) triple per byte moved.
type byteMap []int64

func (bm *byteMap) add(cp int, fileOff, memOff, n int64) {
	for i := int64(0); i < n; i++ {
		*bm = append(*bm, int64(cp)<<56|(fileOff+i)<<28|(memOff+i))
	}
}

// randomSlots draws a slot set over ncp CPs in a file of fileBytes that
// includes nested, overlapping and duplicate ranges, with each CP's
// memory laid out cumulatively as Resolve lays out a stream.
func randomSlots(rng *rand.Rand, ncp int, fileBytes int64) []Slot {
	mem := make([]int64, ncp)
	var slots []Slot
	add := func(cp int, off, n int64) {
		slots = append(slots, Slot{CP: cp, FileOff: off, MemOff: mem[cp], Len: n})
		mem[cp] += n
	}
	for k := rng.Intn(40) + 1; k > 0; k-- {
		cp := rng.Intn(ncp)
		switch r := rng.Intn(4); {
		case r == 0 && len(slots) > 0: // nested inside an existing slot
			s := slots[rng.Intn(len(slots))]
			lo := s.FileOff + rng.Int63n(s.Len)
			add(cp, lo, 1+rng.Int63n(s.FileOff+s.Len-lo))
		case r == 1 && len(slots) > 0: // duplicate of an existing slot
			s := slots[rng.Intn(len(slots))]
			add(cp, s.FileOff, s.Len)
		default:
			n := []int64{1, 7, 100, 700, 3000}[rng.Intn(5)]
			off := rng.Int63n(fileBytes)
			add(cp, off, min(n, fileBytes-off))
		}
	}
	return slots
}

// TestAccessContract checks that the two views every hpf.Access offers
// agree: over every file block, the runs RunsInRange returns, regrouped
// by CP, move exactly the bytes Chunks lists, to the same memory. It
// covers matrix decompositions of every pattern, random slot sets with
// nested, overlapping and duplicate requests, their conforming
// distributions, and each of those shifted by hpf.Offset.
func TestAccessContract(t *testing.T) {
	const ncp, fileBytes, blockSize = 4, 8 << 10, 1024
	type named struct {
		name string
		acc  hpf.Access
	}
	var accs []named
	for _, p := range hpf.AllPatterns() {
		for _, rec := range []int{8, 512, 2048} {
			if fileBytes%rec != 0 {
				continue
			}
			dec, err := hpf.MustPattern(p).Decomp(fileBytes, rec, ncp)
			if err != nil {
				t.Fatalf("%s/%d: %v", p, rec, err)
			}
			accs = append(accs, named{fmt.Sprintf("%s/%d", p, rec), dec})
		}
	}
	// The minimal nested pair: a request containing a later one.
	accs = append(accs, named{"nested pair", NewSlotAccess([]Slot{
		{CP: 0, FileOff: 0, MemOff: 0, Len: 8192},
		{CP: 0, FileOff: 1024, MemOff: 8192, Len: 1024},
	}, ncp)})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		a := NewSlotAccess(randomSlots(rng, ncp, fileBytes), ncp)
		accs = append(accs, named{fmt.Sprintf("slots#%d", i), a}, named{fmt.Sprintf("conforming#%d", i), Conforming(a, ncp)})
	}
	for _, n := range accs[:len(accs):len(accs)] {
		base := make([]int64, ncp)
		for cp := range base {
			base[cp] = rng.Int63n(1 << 20)
		}
		accs = append(accs, named{n.name + " offset", hpf.Offset(n.acc, base)})
	}

	for _, n := range accs {
		var chunks, runs byteMap
		for cp := 0; cp < ncp; cp++ {
			for _, c := range n.acc.Chunks(cp) {
				chunks.add(cp, c.FileOff, c.MemOff, c.Len)
			}
		}
		for off := int64(0); off < fileBytes; off += blockSize {
			for _, r := range n.acc.RunsInRange(off, blockSize) {
				if r.FileOff < off || r.FileOff+r.Len > off+blockSize {
					t.Fatalf("%s: run %+v outside block [%d, %d)", n.name, r, off, off+blockSize)
				}
				runs.add(r.CP, r.FileOff, r.MemOff, r.Len)
			}
		}
		slices.Sort(chunks)
		slices.Sort(runs)
		if !slices.Equal(chunks, runs) {
			t.Errorf("%s: Chunks move %d bytes, RunsInRange %d; the mappings differ", n.name, len(chunks), len(runs))
		}
	}
}
