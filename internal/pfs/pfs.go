// Package pfs provides the parallel-file abstraction shared by both file
// systems under study: a file declustered block by block across all
// disks (paper §4: "Files were striped across all disks, block by
// block"), with the physical placement of each disk's blocks governed by
// a layout policy — contiguous or random-blocks (§5).
//
// The file image is the content every experiment writes and verifies:
// byte off of the file is ByteAt(off). Image, FillImage, BlockImage,
// VerifyImage and File.Preload serve it from one process-wide table of
// ByteAt values, so filling is a copy and verifying a bytes.Equal. The
// table is immutable once published (views stay valid and concurrent
// readers take no lock), grows to the largest offset any caller has
// asked for, and costs at most one file's size plus one 64 KiB segment
// per process.
package pfs

import (
	"fmt"

	"ddio/internal/disk"
	"ddio/internal/sim"
)

// LayoutKind selects the physical placement of file blocks on each disk.
type LayoutKind int

// Layouts from the paper's §5.
const (
	// Contiguous places a disk's file blocks in consecutive physical
	// blocks starting at sector zero.
	Contiguous LayoutKind = iota
	// RandomBlocks places each file block at an independently chosen
	// random physical block slot.
	RandomBlocks
)

// String returns the layout's display name.
func (k LayoutKind) String() string {
	switch k {
	case Contiguous:
		return "contiguous"
	case RandomBlocks:
		return "random-blocks"
	default:
		return fmt.Sprintf("LayoutKind(%d)", int(k))
	}
}

// ParseLayout converts a layout name to its kind.
func ParseLayout(s string) (LayoutKind, error) {
	switch s {
	case "contiguous", "contig":
		return Contiguous, nil
	case "random-blocks", "random":
		return RandomBlocks, nil
	}
	return 0, fmt.Errorf("pfs: unknown layout %q", s)
}

// File is a striped parallel file.
type File struct {
	BlockSize int          // bytes per file block
	NumBlocks int          // file length in blocks
	Disks     []*disk.Disk // stripe set; block b lives on disk b mod len

	sectorsPerBlock int64
	placement       []int64 // file block -> starting sector on its disk
}

// NewFile creates a file of numBlocks blocks of blockSize bytes striped
// over the given disks with the requested layout. rng seeds the
// random-blocks placement (one independent stream per disk).
func NewFile(disks []*disk.Disk, blockSize, numBlocks int, layout LayoutKind, rng *sim.Rand) (*File, error) {
	if len(disks) == 0 {
		return nil, fmt.Errorf("pfs: file needs at least one disk")
	}
	spec := disks[0].Spec
	if blockSize%spec.SectorSize != 0 {
		return nil, fmt.Errorf("pfs: block size %d not a multiple of sector size %d", blockSize, spec.SectorSize)
	}
	f := &File{
		BlockSize:       blockSize,
		NumBlocks:       numBlocks,
		Disks:           disks,
		sectorsPerBlock: int64(blockSize / spec.SectorSize),
		placement:       make([]int64, numBlocks),
	}
	slotsPerDisk := spec.TotalSectors() / f.sectorsPerBlock
	for d := range disks {
		nLocal := f.blocksOnDisk(d)
		if int64(nLocal) > slotsPerDisk {
			return nil, fmt.Errorf("pfs: %d blocks exceed disk capacity of %d slots", nLocal, slotsPerDisk)
		}
		var slots []int64
		switch layout {
		case Contiguous:
			slots = make([]int64, nLocal)
			for i := range slots {
				slots[i] = int64(i)
			}
		case RandomBlocks:
			r := rng.Stream(fmt.Sprintf("layout:disk%d", d))
			slots = sampleSlots(r, slotsPerDisk, nLocal)
		default:
			return nil, fmt.Errorf("pfs: unknown layout %v", layout)
		}
		i := 0
		for b := d; b < numBlocks; b += len(disks) {
			f.placement[b] = slots[i] * f.sectorsPerBlock
			i++
		}
	}
	return f, nil
}

// blocksOnDisk returns how many file blocks live on disk d.
func (f *File) blocksOnDisk(d int) int {
	n := f.NumBlocks / len(f.Disks)
	if d < f.NumBlocks%len(f.Disks) {
		n++
	}
	return n
}

// Size returns the file size in bytes.
func (f *File) Size() int64 { return int64(f.NumBlocks) * int64(f.BlockSize) }

// SectorsPerBlock returns the number of sectors per file block.
func (f *File) SectorsPerBlock() int64 { return f.sectorsPerBlock }

// DiskOf returns the index of the disk holding file block b.
func (f *File) DiskOf(b int) int { return b % len(f.Disks) }

// LBN returns the starting sector of file block b on its disk.
func (f *File) LBN(b int) int64 { return f.placement[b] }

// LocalBlocks returns the file blocks resident on disk d, in ascending
// file order.
func (f *File) LocalBlocks(d int) []int {
	out := make([]int, 0, f.blocksOnDisk(d))
	for b := d; b < f.NumBlocks; b += len(f.Disks) {
		out = append(out, b)
	}
	return out
}

// Preload writes the deterministic file image to the disks directly,
// without simulating any I/O time, to set up read experiments.
func (f *File) Preload() {
	buf := make([]byte, f.BlockSize) // WriteData copies, so one buffer serves every block
	for b := 0; b < f.NumBlocks; b++ {
		FillImage(buf, int64(b)*int64(f.BlockSize))
		f.Disks[f.DiskOf(b)].WriteData(f.LBN(b), buf)
	}
}

// ReadBack assembles the file's current content from the disks (no
// simulated time), for write verification. Each block's transfer buffer
// goes back to its disk's free list once copied out.
func (f *File) ReadBack() []byte {
	out := make([]byte, f.Size())
	for b := 0; b < f.NumBlocks; b++ {
		d := f.Disks[f.DiskOf(b)]
		data := d.ReadData(f.LBN(b), f.sectorsPerBlock)
		copy(out[b*f.BlockSize:], data)
		d.Recycle(data)
	}
	return out
}
