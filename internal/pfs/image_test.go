package pfs

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// resetImageTable drops the shared table so the next call rebuilds it
// from scratch. Views handed out before stay valid: they keep their own
// segments alive.
func resetImageTable() {
	imageGrow.Lock()
	imageTable.Store(nil)
	imageGrow.Unlock()
}

// tableLen is how many image bytes the shared table currently holds.
func tableLen() int64 {
	if t := imageTable.Load(); t != nil {
		return int64(len(*t)) * imageSegment
	}
	return 0
}

// hashed is the reference image: a ByteAt loop.
func hashed(off int64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = ByteAt(off + int64(i))
	}
	return out
}

// checkRange asserts that every table-backed image function agrees with
// the ByteAt loop on [off, off+n).
func checkRange(t *testing.T, off int64, n int) {
	t.Helper()
	want := hashed(off, n)
	if got := Image(off, n); !bytes.Equal(got, want) {
		t.Fatalf("Image(%d, %d) differs from ByteAt", off, n)
	}
	dst := make([]byte, n)
	FillImage(dst, off)
	if !bytes.Equal(dst, want) {
		t.Fatalf("FillImage(%d, %d) differs from ByteAt", off, n)
	}
	if i := VerifyImage(want, off); i != -1 {
		t.Fatalf("VerifyImage(%d, %d) = %d on the ByteAt image", off, n, i)
	}
}

func TestImageFirstCallAtLargeOffset(t *testing.T) {
	resetImageTable()
	off := int64(3*imageSegment + 12345)
	checkRange(t, off, 2*imageSegment+7)
	if got, end := tableLen(), off+2*imageSegment+7; got < end || got >= end+imageSegment {
		t.Fatalf("table holds %d bytes after asking for [%d, %d)", got, off, end)
	}
	checkRange(t, 0, 100) // the prefix below the first request is served too
}

// Property: over random offsets and lengths, including ranges that
// straddle the table's current end and segment boundaries, the table
// serves exactly the ByteAt image.
func TestImageMatchesByteAtRandomRanges(t *testing.T) {
	resetImageTable()
	r := rand.New(rand.NewSource(7))
	for k := 0; k < 300; k++ {
		var off int64
		switch k % 3 {
		case 0: // straddle the current end of the table
			end := tableLen()
			off = max(0, end-int64(r.Intn(4096)))
		case 1: // straddle a segment boundary
			off = int64(r.Intn(8)+1)*imageSegment - int64(r.Intn(300))
		default:
			off = r.Int63n(8 * imageSegment)
		}
		n := r.Intn(3 * imageSegment)
		if k%10 == 0 {
			n = r.Intn(3) // empty and one-byte ranges
		}
		checkRange(t, off, n)
	}
	for _, c := range []struct{ b, size int }{{0, 512}, {127, 512}, {3, 8192}, {9, 65536}, {2, 3 * 512}, {1, 200 << 10}} {
		want := hashed(int64(c.b)*int64(c.size), c.size)
		if !bytes.Equal(BlockImage(c.b, c.size), want) {
			t.Errorf("BlockImage(%d, %d) differs from ByteAt", c.b, c.size)
		}
	}
}

func TestVerifyImageFirstMismatchIndex(t *testing.T) {
	const off, n = imageSegment - 1000, 3000 // spans a segment boundary
	for _, at := range []int{0, n / 2, 999, 1000, n - 1} {
		data := Image(off, n)
		data[at] ^= 0x01
		if at < n-1 {
			data[n-1] ^= 0x80 // a later mismatch must not hide the first
		}
		if got := VerifyImage(data, off); got != at {
			t.Errorf("corrupt byte %d: VerifyImage = %d", at, got)
		}
	}
}

// Data that is right for a neighbouring range is wrong for this one:
// the table did not weaken the byte-for-byte check.
func TestVerifyImageRejectsShiftedData(t *testing.T) {
	const block = 8192
	for _, c := range []struct {
		name  string
		shift int64
	}{{"one block later", block}, {"one block earlier", -block}, {"one byte later", 1}, {"one byte earlier", -1}} {
		off := int64(5 * block)
		data := Image(off+c.shift, block)
		if VerifyImage(data, off) < 0 {
			t.Errorf("%s: shifted data passed verification", c.name)
		}
	}
	if VerifyImage(make([]byte, block), 0) < 0 {
		t.Error("zeros passed verification")
	}
}

// Goroutines fill and verify overlapping, growing ranges while the table
// grows under them; run with -race.
func TestImageConcurrentGrowth(t *testing.T) {
	resetImageTable()
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for k := 0; k < 40; k++ {
				end := int64(k+1) * imageSegment / 2 // every worker pushes the end outward
				n := r.Intn(imageSegment) + 1
				off := max(0, end-int64(n)+int64(r.Intn(imageSegment)))
				buf := make([]byte, n)
				FillImage(buf, off)
				if !bytes.Equal(buf, hashed(off, n)) {
					t.Errorf("worker %d: FillImage(%d, %d) differs from ByteAt", w, off, n)
					return
				}
				if i := VerifyImage(buf, off); i != -1 {
					t.Errorf("worker %d: VerifyImage(%d, %d) = %d", w, off, n, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
