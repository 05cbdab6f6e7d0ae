package tcfs

import (
	"math/bits"

	"ddio/internal/sim"
)

// bufState tracks the lifecycle of one cache buffer.
type bufState int

const (
	bufFree bufState = iota
	bufReading
	bufValid
)

// buffer is one block-sized cache frame.
type buffer struct {
	block   int // file block held, -1 when free
	data    []byte
	written byteMask // dirty bytes not yet flushed (write-behind)
	dirty   int      // count of bits set in written
	// holes marks a frame installed by a write miss: only its written
	// bytes are real. A read hit fills the rest from disk first, and a
	// flush's read-modify-write fills them too.
	holes    bool
	state    bufState
	flushing bool
	pins     int
	lastUse  sim.Time
}

func (b *buffer) reset(blockSize int) {
	b.block = -1
	if b.data == nil {
		b.data = make([]byte, blockSize)
	} else {
		clear(b.data) // keep the frame; a fresh frame reads as zeros
	}
	clear(b.written)
	b.dirty = 0
	b.holes = false
	b.state = bufFree
	b.flushing = false
	b.pins = 0
}

// write copies data into the frame at byte off and marks it dirty,
// reporting whether every byte of the block is now dirty (which also
// means the frame has no holes left).
func (b *buffer) write(off int, data []byte) (full bool) {
	copy(b.data[off:], data)
	b.dirty += b.written.mark(off, len(data))
	if b.dirty < len(b.data) {
		return false
	}
	b.holes = false
	return true
}

// byteMask is a frame's dirty bitmap: bit i%64 of word i/64 is set when
// byte i has been written since the last flush.
type byteMask []uint64

// mark sets the bits of bytes [off, off+n), a word at a time, and
// returns how many of them were not set before.
func (m byteMask) mark(off, n int) int {
	added := 0
	for end := off + n; off < end; {
		lo := off & 63
		k := min(64-lo, end-off) // bits covered in this word
		w := ^uint64(0) >> (64 - k) << lo
		added += bits.OnesCount64(w &^ m[off>>6])
		m[off>>6] |= w
		off += k
	}
	return added
}

// fill copies src into every byte of dst whose bit is clear, skipping
// fully written words.
func (m byteMask) fill(dst, src []byte) {
	for i, w := range m {
		if w == ^uint64(0) {
			continue
		}
		lo, hi := i*64, min(i*64+64, len(dst))
		if w == 0 {
			copy(dst[lo:hi], src[lo:hi])
			continue
		}
		for j := lo; j < hi; j++ {
			if w&(1<<(j-lo)) == 0 {
				dst[j] = src[j]
			}
		}
	}
}

// blockCache is an IOP's block cache: a fixed pool of buffers indexed by
// file block, LRU-replaced, shared by all concurrently running handler
// threads of that IOP. Blocking (waiting for a fill, a flush, or a free
// frame) parks the handler on the cache's condition variables.
type blockCache struct {
	s         *Server
	blockSize int
	bufs      []*buffer
	index     map[int]*buffer
	avail     *sim.Cond // a frame may have become reclaimable
	changed   *sim.Cond // some buffer changed state (fill/flush done)
}

func newBlockCache(s *Server, frames, blockSize int) *blockCache {
	c := &blockCache{
		s:         s,
		blockSize: blockSize,
		index:     make(map[int]*buffer),
		avail:     sim.NewCond(s.m.Eng, "tc-cache-avail:"+s.node.String()),
		changed:   sim.NewCond(s.m.Eng, "tc-cache-state:"+s.node.String()),
	}
	if frames < 2 {
		frames = 2
	}
	c.bufs = make([]*buffer, frames)
	words := (blockSize + 63) / 64
	masks := make(byteMask, frames*words) // every frame's bitmap, one allocation
	for i := range c.bufs {
		c.bufs[i] = &buffer{written: masks[i*words : (i+1)*words : (i+1)*words]}
		c.bufs[i].reset(blockSize)
	}
	return c
}

// lookup returns the buffer holding block, or nil.
func (c *blockCache) lookup(block int) *buffer { return c.index[block] }

// noteOccupancy traces the cache's occupied-frame count; called after
// every install or eviction so the trace carries a step function of
// buffer occupancy over time.
func (c *blockCache) noteOccupancy(t sim.Time) {
	c.s.rec.Buffer(c.s.traceName, int64(t), len(c.index), len(c.bufs))
}

// getRead returns a pinned, valid buffer holding block, reading it from
// disk on a miss or to fill the holes of a partially written frame. The
// caller must unpin.
func (c *blockCache) getRead(p *sim.Proc, block int) *buffer {
	for {
		if b := c.index[block]; b != nil {
			b.pins++
			// A flush of a frame with holes fills them; wait for it.
			for b.state == bufReading || (b.holes && b.flushing) {
				c.changed.Wait(p)
			}
			if b.block == block && b.state == bufValid {
				if b.holes {
					c.fillHoles(p, b)
				}
				b.lastUse = p.Now()
				c.s.m2.CacheHits++
				return b
			}
			// The frame was stolen while we waited; retry.
			b.pins--
			continue
		}
		b := c.acquire(p)
		if c.index[block] != nil {
			// Someone else started the same fill while we acquired.
			c.release(b)
			continue
		}
		b.block = block
		b.state = bufReading
		b.pins++
		c.index[block] = b
		c.noteOccupancy(p.Now())
		c.s.m2.CacheMiss++
		data := c.s.diskReadBlock(p, block)
		copy(b.data, data)
		c.s.diskFor(block).Recycle(data)
		b.state = bufValid
		b.lastUse = p.Now()
		c.changed.Broadcast()
		return b
	}
}

// getWrite returns a pinned buffer for writing into block. On a miss no
// disk read happens: a fresh frame with holes is installed (a read hit
// or the write-behind flush fills them from disk if the block is never
// fully overwritten).
func (c *blockCache) getWrite(p *sim.Proc, block int) *buffer {
	for {
		if b := c.index[block]; b != nil {
			b.pins++
			for b.state == bufReading || b.flushing {
				c.changed.Wait(p)
			}
			if b.block == block && b.state == bufValid {
				b.lastUse = p.Now()
				c.s.m2.CacheHits++
				return b
			}
			b.pins--
			continue
		}
		b := c.acquire(p)
		if c.index[block] != nil {
			c.release(b)
			continue
		}
		b.block = block
		b.state = bufValid
		b.holes = true
		b.pins++
		b.lastUse = p.Now()
		c.index[block] = b
		c.noteOccupancy(p.Now())
		c.s.m2.CacheMiss++
		return b
	}
}

// unpin releases a pinned buffer.
func (c *blockCache) unpin(b *buffer) {
	b.pins--
	if b.pins == 0 {
		c.avail.Signal()
	}
}

// release returns an unused acquired frame to the free pool.
func (c *blockCache) release(b *buffer) {
	b.reset(c.blockSize)
	c.avail.Signal()
}

// acquire obtains a free frame, evicting the least-recently-used
// unpinned buffer (flushing it first if dirty). It blocks when every
// frame is pinned or in flight.
func (c *blockCache) acquire(p *sim.Proc) *buffer {
	for {
		var victim *buffer
		for _, b := range c.bufs {
			if b.state == bufFree {
				victim = b
				break
			}
		}
		if victim == nil {
			for _, b := range c.bufs {
				if b.state == bufValid && b.pins == 0 && !b.flushing &&
					(victim == nil || b.lastUse < victim.lastUse) {
					victim = b
				}
			}
		}
		if victim == nil {
			c.avail.Wait(p)
			continue
		}
		if victim.state == bufValid {
			if victim.dirty > 0 {
				c.flush(p, victim)
				continue // state changed while flushing; re-scan
			}
			delete(c.index, victim.block)
			c.noteOccupancy(p.Now())
			victim.reset(c.blockSize)
		}
		victim.state = bufReading // reserve the frame for the caller
		return victim
	}
}

// fillHoles reads a write-installed frame's block from disk and fills
// the bytes no write has covered, so a read hit returns real data. The
// frame is marked reading meanwhile: other readers and writers wait, and
// neither eviction nor a flush can start on it.
func (c *blockCache) fillHoles(p *sim.Proc, b *buffer) {
	b.state = bufReading
	c.s.m2.PartialRMW++
	diskData := c.s.diskReadBlock(p, b.block)
	if b.holes { // a write that covered the rest of the block cleared it
		b.written.fill(b.data, diskData)
		b.holes = false
	}
	c.s.diskFor(b.block).Recycle(diskData)
	b.state = bufValid
	c.changed.Broadcast()
}

// flush writes a dirty buffer to disk, merging with existing disk
// content first when the block was only partially overwritten; the
// merge also fills the frame's holes.
func (c *blockCache) flush(p *sim.Proc, b *buffer) {
	b.flushing = true
	c.s.m2.Flushes++
	dd := c.s.diskFor(b.block)
	data := dd.Buffer(c.blockSize)
	if b.dirty < c.blockSize {
		c.s.m2.PartialRMW++
		diskData := c.s.diskReadBlock(p, b.block)
		copy(data, b.data)
		b.written.fill(data, diskData)
		dd.Recycle(diskData)
		if b.holes {
			copy(b.data, data)
			b.holes = false
		}
	} else {
		copy(data, b.data) // full-frame copy: no stale pool bytes survive
	}
	dirtyAtSubmit := b.dirty
	c.s.diskWriteBlock(p, b.block, data)
	dd.Recycle(data)
	// Bytes written while the flush was in flight stay dirty.
	if dirtyAtSubmit == b.dirty {
		b.dirty = 0
		clear(b.written)
	}
	b.flushing = false
	c.changed.Broadcast()
	c.avail.Signal()
}

// flushAll writes out every dirty buffer (used by Sync).
func (c *blockCache) flushAll(p *sim.Proc) {
	for {
		var b *buffer
		for _, cand := range c.bufs {
			if cand.state == bufValid && cand.dirty > 0 && !cand.flushing {
				b = cand
				break
			}
		}
		if b == nil {
			// Wait out any flushes in flight started by other handlers.
			busy := false
			for _, cand := range c.bufs {
				if cand.flushing || cand.state == bufReading {
					busy = true
					break
				}
			}
			if !busy {
				return
			}
			c.changed.Wait(p)
			continue
		}
		c.flush(p, b)
	}
}

// contains reports whether block is cached or being read (prefetch
// planning).
func (c *blockCache) contains(block int) bool { return c.index[block] != nil }
