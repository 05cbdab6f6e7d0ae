package pfs

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// The deterministic file image: every byte of the file is a pure function
// of its offset, so any subset of any transfer can be verified without
// keeping a reference copy.
//
// ByteAt defines the image; the functions below serve it from a table of
// ByteAt values (the package documentation states its contract). The
// table is a list of fixed-size segments: growing it appends segments,
// so no published byte is ever copied or rewritten. Offsets must be
// non-negative.

// imageSegment is the table's unit of growth in bytes, and so the most
// it holds beyond the largest offset asked for.
const imageSegment = 64 << 10

var (
	imageTable atomic.Pointer[[][]byte] // published segments, in file order
	imageGrow  sync.Mutex               // serializes growth
)

// ByteAt returns the image byte at file offset off.
func ByteAt(off int64) byte {
	v := uint64(off)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	v ^= v >> 29
	return byte(v >> 24)
}

// imageSegments returns the published table, grown first if it does not
// cover [0, end).
func imageSegments(end int64) [][]byte {
	n := int((end + imageSegment - 1) / imageSegment)
	if t := imageTable.Load(); t != nil && len(*t) >= n {
		return *t
	}
	imageGrow.Lock()
	defer imageGrow.Unlock()
	var segs [][]byte
	if t := imageTable.Load(); t != nil {
		if len(*t) >= n {
			return *t
		}
		segs = *t
	}
	// A fresh slice header: readers holding the old one keep a view
	// that is a prefix of the new table.
	grown := make([][]byte, len(segs), n)
	copy(grown, segs)
	for s := len(segs); s < n; s++ {
		seg := make([]byte, imageSegment)
		base := int64(s) * imageSegment
		for i := range seg {
			seg[i] = ByteAt(base + int64(i))
		}
		grown = append(grown, seg)
	}
	imageTable.Store(&grown)
	return grown
}

// Image returns the image bytes for file range [off, off+n).
func Image(off int64, n int) []byte {
	out := make([]byte, n)
	FillImage(out, off)
	return out
}

// FillImage writes the image for the range starting at off into dst.
func FillImage(dst []byte, off int64) {
	segs := imageSegments(off + int64(len(dst)))
	for len(dst) > 0 {
		k := copy(dst, segs[off/imageSegment][off%imageSegment:])
		dst = dst[k:]
		off += int64(k)
	}
}

// BlockImage returns the image of file block b for the given block size.
func BlockImage(b, blockSize int) []byte {
	return Image(int64(b)*int64(blockSize), blockSize)
}

// VerifyImage reports the first mismatching index (or -1) comparing data
// against the image starting at file offset off.
func VerifyImage(data []byte, off int64) int {
	segs := imageSegments(off + int64(len(data)))
	for i := 0; i < len(data); {
		want := segs[off/imageSegment][off%imageSegment:]
		got := data[i:min(len(data), i+len(want))]
		want = want[:len(got)]
		if !bytes.Equal(got, want) {
			for j := range got {
				if got[j] != want[j] {
					return i + j
				}
			}
		}
		i += len(got)
		off += int64(len(got))
	}
	return -1
}
