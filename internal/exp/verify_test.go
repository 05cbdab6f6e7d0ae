package exp

import (
	"strings"
	"testing"

	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/workload"
)

// verifyFixture is a built machine and decomposition for cfg with every
// byte where a correct transfer would leave it: the image in each CP's
// chunks (reads) or on the disks (writes).
func verifyFixture(t *testing.T, cfg Config) (*machine, hpf.Pattern, *hpf.Decomp) {
	t.Helper()
	pat, err := hpf.ParsePattern(cfg.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := pat.Decomp(cfg.FileBytes, cfg.RecordSize, cfg.NCP)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := buildMachine(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mc.Close)
	if pat.Write {
		mc.f.Preload()
		return mc, pat, dec
	}
	for cp, node := range mc.m.CPs {
		node.Mem = make([]byte, dec.CPBytes(cp))
		for _, ch := range dec.Chunks(cp) {
			pfs.FillImage(node.Mem[ch.MemOff:ch.MemOff+ch.Len], ch.FileOff)
		}
	}
	return mc, pat, dec
}

func TestVerifyNamesFirstBadReadChunk(t *testing.T) {
	cfg := smokeCfg()
	cfg.Pattern, cfg.RecordSize = "rc", 1024
	mc, pat, dec := verifyFixture(t, cfg)
	if n, first := verify(cfg, pat, dec, mc.f, mc.m); n != 0 || first != nil {
		t.Fatalf("clean buffers: %d errors, first %v", n, first)
	}

	ch := dec.Chunks(2)[3]
	mem := mc.m.CPs[2].Mem
	mem[ch.MemOff+100] ^= 0xFF
	mem[ch.MemOff+200] ^= 0xFF                    // same chunk: still one error
	mc.m.CPs[3].Mem[dec.Chunks(3)[0].MemOff] ^= 1 // a later CP's chunk: a second
	n, first := verify(cfg, pat, dec, mc.f, mc.m)
	if n != 2 || first == nil {
		t.Fatalf("got %d errors, first %v; want 2 and a failure", n, first)
	}
	bad := ch.FileOff + 100
	want := VerifyFailure{Phase: -1, Request: -1, CP: 2, FileOff: ch.FileOff, Len: ch.Len, Index: 100,
		Block: bad / int64(cfg.BlockSize), Want: pfs.ByteAt(bad), Got: pfs.ByteAt(bad) ^ 0xFF}
	if *first != want {
		t.Fatalf("first failure %+v, want %+v", *first, want)
	}
}

func TestVerifyNamesWriterOfFirstBadBlock(t *testing.T) {
	cfg := smokeCfg()
	cfg.Pattern, cfg.RecordSize = "wc", 1024
	mc, pat, dec := verifyFixture(t, cfg)
	if n, first := verify(cfg, pat, dec, mc.f, mc.m); n != 0 || first != nil {
		t.Fatalf("clean file: %d errors, first %v", n, first)
	}

	const block, at = 9, 5000 // corrupt byte 5000 of file block 9 on disk
	bad := int64(block*cfg.BlockSize + at)
	img := pfs.BlockImage(block, cfg.BlockSize)
	img[at] ^= 0x5A
	mc.f.Disks[mc.f.DiskOf(block)].WriteData(mc.f.LBN(block), img)
	n, first := verify(cfg, pat, dec, mc.f, mc.m)
	if n != 1 || first == nil {
		t.Fatalf("got %d errors, first %v; want 1 and a failure", n, first)
	}
	var owner int
	var och hpf.Chunk
	for cp := 0; cp < cfg.NCP; cp++ {
		for _, ch := range dec.Chunks(cp) {
			if ch.FileOff <= bad && bad < ch.FileOff+ch.Len {
				owner, och = cp, ch
			}
		}
	}
	want := VerifyFailure{Phase: -1, Request: -1, CP: owner, Write: true, FileOff: och.FileOff, Len: och.Len,
		Index: bad - och.FileOff, Block: block, Want: pfs.ByteAt(bad), Got: pfs.ByteAt(bad) ^ 0x5A}
	if *first != want {
		t.Fatalf("first failure %+v, want %+v", *first, want)
	}
}

func TestVerifyFailureString(t *testing.T) {
	for _, c := range []struct {
		v    VerifyFailure
		want string
	}{
		{VerifyFailure{Phase: -1, Request: -1, CP: 2, FileOff: 8192, Len: 1024, Index: 3, Block: 1, Want: 0xc7, Got: 0},
			"cp 2 read [8192, 9216): byte 3 (file offset 8195, block 1) is 0x00, want 0xc7"},
		{VerifyFailure{Phase: 1, Request: 17, CP: 0, Write: true, FileOff: 238000, Len: 1000, Block: 29, Want: 0xe5, Got: 0x10},
			"phase 1 cp 0 request 17 write [238000, 239000): byte 0 (file offset 238000, block 29) is 0x10, want 0xe5"},
	} {
		if got := c.v.String(); got != c.want {
			t.Errorf("got  %q\nwant %q", got, c.want)
		}
	}
}

// Whenever a run reports verification errors it names the first bad
// range, and the named byte really differs from the image. The mixed
// read/write stream below exercises tcfs partial-write frames, where
// ROADMAP defect (a) lives; a clean run names nothing.
func TestRunReportsFirstBadRangeConsistently(t *testing.T) {
	wl, err := workload.Parse([]byte(`{"name":"p","phases":[{"pattern":"uniform","requests":64,"record_sizes":[1000],"read_fraction":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{TraditionalCaching, DiskDirected} {
		cfg := smokeCfg()
		cfg.Method, cfg.NCP, cfg.NIOP, cfg.NDisks, cfg.Workload = m, 1, 2, 2, wl
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if (res.VerifyErrors > 0) != (res.FirstBad != nil) {
			t.Fatalf("%v: %d verification errors but first bad range %v", m, res.VerifyErrors, res.FirstBad)
		}
		if fb := res.FirstBad; fb != nil {
			t.Logf("%v: %d errors; first: %v", m, res.VerifyErrors, fb)
			bad := fb.FileOff + fb.Index
			if fb.Phase != 0 || fb.Request < 0 || fb.Index >= fb.Len || fb.Got == fb.Want ||
				fb.Want != pfs.ByteAt(bad) || fb.Block != bad/int64(cfg.BlockSize) {
				t.Errorf("%v: inconsistent failure record %+v", m, *fb)
			}
			if !strings.Contains(fb.String(), "request ") {
				t.Errorf("%v: workload failure does not name its request: %v", m, fb)
			}
			if _, err := NewRunner(1, nil).Trials(cfg, 1); err == nil || !strings.Contains(err.Error(), fb.String()) {
				t.Errorf("%v: runner error %v does not name the first bad range", m, err)
			}
		}
	}
}
