package disk

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestPageStoreMatchesSectorOracle drives the page store with random
// writes and reads at unaligned LBNs, with counts that are not multiples
// of a page and ranges that cross page boundaries, against a plain
// per-sector map. Unwritten sectors must read as zeros, also into a
// recycled buffer full of stale bytes, and StoredSectors must equal the
// oracle's sector count.
func TestPageStoreMatchesSectorOracle(t *testing.T) {
	_, d := newTestDisk(t, HP97560())
	ss := d.Spec.SectorSize
	oracle := make(map[int64][]byte)
	rng := rand.New(rand.NewSource(1))
	const span = 40 * pageSectors // small, so ranges overlap often

	check := func(lbn, count int64, got []byte) {
		t.Helper()
		for i := int64(0); i < count; i++ {
			want := oracle[lbn+i]
			if want == nil {
				want = make([]byte, ss)
			}
			if sec := got[int(i)*ss : int(i+1)*ss]; !bytes.Equal(sec, want) {
				t.Fatalf("sector %d of read [%d, %d) differs from the oracle", lbn+i, lbn, lbn+count)
			}
		}
	}
	for op := 0; op < 3000; op++ {
		lbn := rng.Int63n(span)
		count := 1 + rng.Int63n(3*pageSectors)
		switch rng.Intn(3) {
		case 0: // write
			data := make([]byte, int(count)*ss)
			rng.Read(data)
			d.WriteData(lbn, data)
			for i := int64(0); i < count; i++ {
				oracle[lbn+i] = data[int(i)*ss : int(i+1)*ss]
			}
		case 1: // read into whatever the free list holds
			got := d.ReadData(lbn, count)
			check(lbn, count, got)
			d.Recycle(got)
		case 2: // read into a recycled buffer full of stale bytes
			stale := d.Buffer(int(count) * ss)
			for i := range stale {
				stale[i] = 0xEE
			}
			d.Recycle(stale)
			got := d.ReadData(lbn, count)
			if &got[0] != &stale[0] {
				t.Fatal("read did not reuse the recycled buffer")
			}
			check(lbn, count, got)
			d.Recycle(got)
		}
		if d.StoredSectors() != len(oracle) {
			t.Fatalf("op %d: StoredSectors %d, oracle holds %d", op, d.StoredSectors(), len(oracle))
		}
	}
	// Far beyond every write: whole pages never created read as zeros.
	check(span+5*pageSectors+3, 2*pageSectors+1, d.ReadData(span+5*pageSectors+3, 2*pageSectors+1))
}

// TestRewriteStoredSectorsAllocatesNothing: rewriting sectors that are
// already stored copies into their pages in place, so a workload that
// rewrites blocks reaches a steady state with no allocation, and reads
// return the latest bytes.
func TestRewriteStoredSectorsAllocatesNothing(t *testing.T) {
	_, d := newTestDisk(t, HP97560())
	ss := d.Spec.SectorSize
	const lbn, count = 7, 2*pageSectors + 3 // unaligned, spans four pages
	payload := make([]byte, count*ss)
	d.WriteData(lbn, payload)
	d.Recycle(d.ReadData(lbn, count)) // warm the read free list
	round := byte(0)
	allocs := testing.AllocsPerRun(50, func() {
		round++
		for i := range payload {
			payload[i] = round + byte(i)
		}
		d.WriteData(lbn, payload)
		got := d.ReadData(lbn, count)
		if !bytes.Equal(got, payload) {
			t.Fatalf("round %d: read back stale bytes", round)
		}
		d.Recycle(got)
	})
	if allocs != 0 {
		t.Fatalf("rewrite + read allocated %.1f times per round, want 0", allocs)
	}
	if d.StoredSectors() != count {
		t.Fatalf("StoredSectors %d, want %d", d.StoredSectors(), count)
	}
}
