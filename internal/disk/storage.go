package disk

import "math/bits"

// Byte storage behind the mechanical model. Contents are kept so
// experiments can verify end-to-end data integrity; unwritten sectors
// read as zeros.
//
// Storage is a map of fixed pages of pageSectors consecutive sectors
// (8 KiB at 512-byte sectors). A write copies into its pages in place,
// so moving a block costs one map operation per page and a copy, not a
// map entry per sector. Each page records which of its sectors have
// been written, which keeps StoredSectors meaningful.

// pageSectors is the number of sectors per storage page.
const pageSectors = 16

// page is one stored run of pageSectors sectors. Sectors never written
// stay zero in data.
type page struct {
	written uint16 // bit i set: sector i has been written
	data    []byte
}

// WriteData stores bytes at the given sector without simulating any time
// (used both by the write path and to preload file images before a run).
// The data is copied; the caller keeps ownership of data.
func (d *Disk) WriteData(lbn int64, data []byte) {
	ss := d.Spec.SectorSize
	if len(data)%ss != 0 {
		panic("disk: WriteData length not sector-aligned")
	}
	for len(data) > 0 {
		key, first := lbn/pageSectors, int(lbn%pageSectors)
		n := min(pageSectors-first, len(data)/ss)
		pg := d.storage[key]
		if pg == nil {
			pg = &page{data: make([]byte, pageSectors*ss)}
			d.storage[key] = pg
		}
		copy(pg.data[first*ss:], data[:n*ss])
		mask := uint16(1<<n-1) << first
		d.stored += bits.OnesCount16(mask &^ pg.written)
		pg.written |= mask
		lbn += int64(n)
		data = data[n*ss:]
	}
}

// ReadData returns the bytes in sectors [lbn, lbn+count) in a transfer
// buffer drawn from the disk's free list. The buffer is owned by the
// caller; pass it to Recycle once its contents are no longer referenced
// to keep the free list warm (dropping it instead is safe but allocates).
func (d *Disk) ReadData(lbn, count int64) []byte {
	ss := d.Spec.SectorSize
	out := d.pool.Get(int(count) * ss)
	for dst := out; len(dst) > 0; {
		key, first := lbn/pageSectors, int(lbn%pageSectors)
		n := min(pageSectors-first, len(dst)/ss)
		if pg := d.storage[key]; pg != nil {
			copy(dst[:n*ss], pg.data[first*ss:])
		} else {
			clear(dst[:n*ss]) // pooled buffers carry stale bytes
		}
		lbn += int64(n)
		dst = dst[n*ss:]
	}
	return out
}

// Buffer returns an n-byte scratch buffer from the disk's free list with
// unspecified contents, for callers staging data they will hand to
// WriteData. Pass it to Recycle when done.
func (d *Disk) Buffer(n int) []byte { return d.pool.Get(n) }

// Recycle returns a buffer obtained from ReadData, TryReadSync, or
// Buffer to the disk's free list. The caller must not retain any
// reference into the buffer (including subslices) afterwards; a recycled
// buffer is reused verbatim by a later read.
func (d *Disk) Recycle(buf []byte) { d.pool.Put(buf) }

// StoredSectors returns how many distinct sectors hold data (diagnostic).
func (d *Disk) StoredSectors() int { return d.stored }
