package pfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"ddio/internal/disk"
	"ddio/internal/sim"
)

func newDisks(t *testing.T, n int) []*disk.Disk {
	t.Helper()
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	out := make([]*disk.Disk, n)
	for i := range out {
		out[i] = disk.New(e, "d", disk.HP97560(), nil, nil)
	}
	return out
}

func TestStripingRoundRobin(t *testing.T) {
	disks := newDisks(t, 4)
	f, err := NewFile(disks, 8192, 16, Contiguous, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 16; b++ {
		if f.DiskOf(b) != b%4 {
			t.Fatalf("block %d on disk %d", b, f.DiskOf(b))
		}
	}
	if f.Size() != 16*8192 {
		t.Fatalf("size %d", f.Size())
	}
	if f.SectorsPerBlock() != 16 {
		t.Fatalf("sectors per block %d", f.SectorsPerBlock())
	}
}

func TestContiguousLayoutIsSequentialPerDisk(t *testing.T) {
	disks := newDisks(t, 4)
	f, _ := NewFile(disks, 8192, 64, Contiguous, sim.NewRand(1))
	for d := 0; d < 4; d++ {
		blocks := f.LocalBlocks(d)
		for i, b := range blocks {
			if f.LBN(b) != int64(i)*16 {
				t.Fatalf("disk %d block %d at LBN %d, want %d", d, b, f.LBN(b), i*16)
			}
		}
	}
}

func TestRandomLayoutIsPermutationOfSlots(t *testing.T) {
	disks := newDisks(t, 2)
	f, _ := NewFile(disks, 8192, 64, RandomBlocks, sim.NewRand(3))
	for d := 0; d < 2; d++ {
		seen := map[int64]bool{}
		sequential := true
		for i, b := range f.LocalBlocks(d) {
			lbn := f.LBN(b)
			if lbn%16 != 0 {
				t.Fatalf("unaligned LBN %d", lbn)
			}
			if seen[lbn] {
				t.Fatalf("disk %d: slot %d used twice", d, lbn)
			}
			seen[lbn] = true
			if lbn != int64(i)*16 {
				sequential = false
			}
		}
		if sequential {
			t.Fatalf("random layout of disk %d came out sequential", d)
		}
	}
}

func TestRandomLayoutVariesWithSeed(t *testing.T) {
	a, _ := NewFile(newDisks(t, 1), 8192, 32, RandomBlocks, sim.NewRand(1))
	b, _ := NewFile(newDisks(t, 1), 8192, 32, RandomBlocks, sim.NewRand(2))
	same := true
	for i := 0; i < 32; i++ {
		if a.LBN(i) != b.LBN(i) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical layouts")
	}
}

func TestLocalBlocksUnevenDivision(t *testing.T) {
	disks := newDisks(t, 3)
	f, _ := NewFile(disks, 8192, 10, Contiguous, sim.NewRand(1))
	total := 0
	for d := 0; d < 3; d++ {
		n := len(f.LocalBlocks(d))
		total += n
	}
	if total != 10 {
		t.Fatalf("local blocks sum %d, want 10", total)
	}
	if len(f.LocalBlocks(0)) != 4 || len(f.LocalBlocks(2)) != 3 {
		t.Fatalf("distribution %d/%d/%d", len(f.LocalBlocks(0)), len(f.LocalBlocks(1)), len(f.LocalBlocks(2)))
	}
}

func TestPreloadReadBackRoundTrip(t *testing.T) {
	disks := newDisks(t, 4)
	f, _ := NewFile(disks, 8192, 20, RandomBlocks, sim.NewRand(5))
	f.Preload()
	got := f.ReadBack()
	if idx := VerifyImage(got, 0); idx >= 0 {
		t.Fatalf("image mismatch at offset %d", idx)
	}
}

// ReadBack hands each block's transfer buffer back to its disk, so after
// the first block on a disk every read reuses a buffer.
func TestReadBackRecyclesTransferBuffers(t *testing.T) {
	disks := newDisks(t, 4)
	f, _ := NewFile(disks, 8192, 20, Contiguous, sim.NewRand(5))
	f.Preload()
	before := make([]int64, len(disks))
	for d, dk := range disks {
		_, before[d] = dk.PoolStats()
	}
	f.ReadBack()
	for d, dk := range disks {
		_, after := dk.PoolStats()
		if got, want := after-before[d], int64(f.blocksOnDisk(d)-1); got != want {
			t.Errorf("disk %d: %d reused buffers during ReadBack, want %d", d, got, want)
		}
	}
}

func TestNewFileErrors(t *testing.T) {
	if _, err := NewFile(nil, 8192, 4, Contiguous, sim.NewRand(1)); err == nil {
		t.Error("no disks accepted")
	}
	disks := newDisks(t, 1)
	if _, err := NewFile(disks, 1000, 4, Contiguous, sim.NewRand(1)); err == nil {
		t.Error("non-sector-aligned block accepted")
	}
	// Too many blocks for one disk.
	if _, err := NewFile(disks, 8192, 1<<20, Contiguous, sim.NewRand(1)); err == nil {
		t.Error("oversized file accepted")
	}
}

func TestParseLayout(t *testing.T) {
	for _, c := range []struct {
		in   string
		want LayoutKind
	}{{"contiguous", Contiguous}, {"contig", Contiguous}, {"random", RandomBlocks}, {"random-blocks", RandomBlocks}} {
		got, err := ParseLayout(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseLayout(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseLayout("bogus"); err == nil {
		t.Error("bogus layout accepted")
	}
	if Contiguous.String() != "contiguous" || RandomBlocks.String() != "random-blocks" {
		t.Error("layout names")
	}
}

func TestImageDeterministicAndOffsetSensitive(t *testing.T) {
	a := Image(0, 64)
	b := Image(0, 64)
	if !bytes.Equal(a, b) {
		t.Fatal("image not deterministic")
	}
	c := Image(1, 64)
	if bytes.Equal(a, c) {
		t.Fatal("image insensitive to offset")
	}
	if VerifyImage(a, 0) != -1 {
		t.Fatal("self-verify failed")
	}
	a[10] ^= 0xFF
	if VerifyImage(a, 0) != 10 {
		t.Fatal("corruption not located")
	}
}

// Property: BlockImage(b) is exactly the corresponding slice of the
// whole-file image.
func TestQuickBlockImageConsistent(t *testing.T) {
	f := func(b uint8, szSel bool) bool {
		size := 512
		if szSel {
			size = 8192
		}
		blk := BlockImage(int(b), size)
		return VerifyImage(blk, int64(b)*int64(size)) == -1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
