package tcfs

import (
	"bytes"
	"math/rand"
	"testing"

	"ddio/internal/pfs"
	"ddio/internal/sim"
)

// boolMask is the per-byte reference for byteMask: mark sets bytes
// [off, off+n) and returns how many were clear.
type boolMask []bool

func (o boolMask) mark(off, n int) int {
	added := 0
	for i := off; i < off+n; i++ {
		if !o[i] {
			o[i] = true
			added++
		}
	}
	return added
}

// TestByteMaskMatchesBoolOracle marks random ranges, the ranges around
// the 63/64/65-byte word edges and whole blocks, and checks every bit,
// every newly-set count, and fill's merge against a []bool per byte.
func TestByteMaskMatchesBoolOracle(t *testing.T) {
	const size = 8192
	rng := rand.New(rand.NewSource(1))
	var edges [][2]int
	for _, at := range []int{0, 64, 128, 4096, size - 64} {
		for _, n := range []int{1, 63, 64, 65} {
			for _, d := range []int{-1, 0, 1} {
				if off := at + d; off >= 0 && off+n <= size {
					edges = append(edges, [2]int{off, n})
				}
			}
		}
	}
	for round := 0; round < 60; round++ {
		m := make(byteMask, size/64)
		o := make(boolMask, size)
		var ranges [][2]int
		switch round {
		case 0:
			ranges = edges
		case 1:
			ranges = [][2]int{{0, size}, {0, size}} // whole block, then again: adds nothing
		default:
			for k := rng.Intn(20); k >= 0; k-- {
				off := rng.Intn(size)
				ranges = append(ranges, [2]int{off, 1 + rng.Intn(size-off)/(1+rng.Intn(64))})
			}
		}
		for _, r := range ranges {
			if got, want := m.mark(r[0], r[1]), o.mark(r[0], r[1]); got != want {
				t.Fatalf("round %d: mark(%d, %d) newly set %d bits, oracle %d", round, r[0], r[1], got, want)
			}
		}
		for i, w := range o {
			if got := m[i/64]>>(i%64)&1 == 1; got != w {
				t.Fatalf("round %d: bit %d is %v, oracle %v", round, i, got, w)
			}
		}
		frame, disk := make([]byte, size), make([]byte, size)
		rng.Read(frame)
		rng.Read(disk)
		want := bytes.Clone(frame)
		for i, w := range o {
			if !w {
				want[i] = disk[i]
			}
		}
		m.fill(frame, disk)
		if !bytes.Equal(frame, want) {
			t.Fatalf("round %d: fill merged the wrong bytes", round)
		}
	}
}

// TestWarmWriteAllocatesNothing: once a block's frame is cached, writing
// into it (pin, copy, mark dirty, unpin) allocates nothing; each frame's
// bitmap is allocated with the cache and reused.
func TestWarmWriteAllocatesNothing(t *testing.T) {
	r := newRig(t, rigOpts{ncp: 1, niop: 1, ndisks: 1, blocks: 4, layout: pfs.Contiguous})
	c := r.servers[0].cache
	p := r.eng.Go("writer", func(*sim.Proc) {}) // a clock for the cache; never run
	payload := make([]byte, 1000)
	c.unpin(c.getWrite(p, 2)) // install the frame
	off := 0
	allocs := testing.AllocsPerRun(100, func() {
		b := c.getWrite(p, 2)
		if b.write(off, payload) {
			t.Fatal("a half-block stream filled the frame")
		}
		c.unpin(b)
		off += 30 // the warm-up and 100 runs cover [0, 4000)
	})
	if allocs != 0 {
		t.Fatalf("warm write allocated %.1f times, want 0", allocs)
	}
	if b := c.lookup(2); !b.holes || b.dirty != 4000 {
		t.Fatalf("frame holes %v dirty %d, want a holed frame with 4000 dirty bytes", b.holes, b.dirty)
	}
}

// TestFlushFillsHoles: a partial-block flush merges the disk's bytes into
// the frame as well as into the block it writes, so a later read hit on
// the still-cached frame returns the file's bytes without reading the
// disk again.
func TestFlushFillsHoles(t *testing.T) {
	r := newRig(t, rigOpts{ncp: 1, niop: 1, ndisks: 1, blocks: 4, layout: pfs.Contiguous})
	r.f.Preload()
	s := r.servers[0]
	const block = 2
	want := pfs.BlockImage(block, r.f.BlockSize)
	var got []byte
	var rmw int64
	r.eng.Go("t", func(p *sim.Proc) {
		b := s.cache.getWrite(p, block)
		b.write(100, want[100:1100])
		s.cache.flush(p, b)
		s.cache.unpin(b)
		before := s.m2.PartialRMW
		b = s.cache.getRead(p, block)
		got = bytes.Clone(b.data)
		rmw = s.m2.PartialRMW - before
		s.cache.unpin(b)
	})
	r.eng.Run()
	if i := pfs.VerifyImage(got, int64(block*r.f.BlockSize)); i >= 0 {
		t.Fatalf("frame after a partial flush differs from the file at byte %d", i)
	}
	if rmw != 0 {
		t.Fatalf("read hit after the flush merged disk bytes again (%d reads)", rmw)
	}
}
