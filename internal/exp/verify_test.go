package exp

import (
	"errors"
	"strings"
	"testing"

	"ddio/internal/fault"
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

// verifyClassic runs the verifier over a classic run's one phase, as
// Run does.
func verifyClassic(cfg Config, pat hpf.Pattern, dec *hpf.Decomp, mc *machine) (int, *VerifyFailure) {
	res := &workload.Resolved{Phases: []workload.ResolvedPhase{{Pattern: cfg.Pattern, Collective: true, Dec: dec, Write: pat.Write}}}
	return verifyPhases(res, [][]int64{make([]int64, cfg.NCP)}, mc.f, mc.m, true)
}

func TestVerifyNamesFirstBadReadChunk(t *testing.T) {
	cfg := smokeCfg()
	cfg.Pattern, cfg.RecordSize = "rc", 1024
	mc, pat, dec := verifyFixture(t, cfg)
	if n, first := verifyClassic(cfg, pat, dec, mc); n != 0 || first != nil {
		t.Fatalf("clean buffers: %d errors, first %v", n, first)
	}

	ch := dec.Chunks(2)[3]
	mem := mc.m.CPs[2].Mem
	mem[ch.MemOff+100] ^= 0xFF
	mem[ch.MemOff+200] ^= 0xFF                    // same chunk: still one error
	mc.m.CPs[3].Mem[dec.Chunks(3)[0].MemOff] ^= 1 // a later CP's chunk: a second
	n, first := verifyClassic(cfg, pat, dec, mc)
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
	if n, first := verifyClassic(cfg, pat, dec, mc); n != 0 || first != nil {
		t.Fatalf("clean file: %d errors, first %v", n, first)
	}

	const block, at = 9, 5000 // corrupt byte 5000 of file block 9 on disk
	bad := int64(block*cfg.BlockSize + at)
	img := pfs.BlockImage(block, cfg.BlockSize)
	img[at] ^= 0x5A
	mc.f.Disks[mc.f.DiskOf(block)].WriteData(mc.f.LBN(block), img)
	n, first := verifyClassic(cfg, pat, dec, mc)
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
// range, and the named byte really differs from the image; a clean run
// names nothing. The mixed read/write stream exercises tcfs partial-write
// frames, where ROADMAP defect (a) lived. The overlapping read-only
// stream under two-phase I/O was defect (b), a nested request whose
// runs the slot lookup dropped; it verifies clean now, so it also runs
// with a lossy fault plan that keeps the failure path exercised. A run
// that lost requests surfaces from the runner as a FaultLossError
// carrying the same verification count.
func TestRunReportsFirstBadRangeConsistently(t *testing.T) {
	mixed, err := workload.Parse([]byte(`{"name":"p","phases":[{"pattern":"uniform","requests":64,"record_sizes":[1000],"read_fraction":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	overlapping, err := workload.Parse([]byte(`{"name":"p","phases":[{"pattern":"uniform","requests":256,"record_sizes":[1000,8192]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	lossy := &fault.Plan{DiskErrorRate: 0.5, RetryLimit: 1}
	for _, c := range []struct {
		m      Method
		ncp    int
		wl     *workload.Spec
		faults *fault.Plan
	}{{TraditionalCaching, 1, mixed, nil}, {DiskDirected, 1, mixed, nil}, {TwoPhase, 4, overlapping, nil}, {TwoPhase, 4, overlapping, lossy}} {
		m := c.m
		cfg := smokeCfg()
		cfg.Method, cfg.NCP, cfg.NIOP, cfg.NDisks, cfg.Workload, cfg.Faults = m, c.ncp, 2, 2, c.wl, c.faults
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if (res.VerifyErrors > 0) != (res.FirstBad != nil) {
			t.Fatalf("%v: %d verification errors but first bad range %v", m, res.VerifyErrors, res.FirstBad)
		}
		if c.faults != nil && res.VerifyErrors == 0 {
			t.Errorf("%v: lossy run verified clean (%d requests lost)", m, res.Faults.Exhausted)
		}
		if c.faults == nil && res.VerifyErrors > 0 {
			t.Errorf("%v: %d verification errors; first: %v", m, res.VerifyErrors, res.FirstBad)
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
			_, err := NewRunner(1, nil).Trials(cfg, 1)
			var loss *FaultLossError
			switch {
			case res.Faults.Exhausted > 0:
				if !errors.As(err, &loss) || loss.VerifyErrors != res.VerifyErrors {
					t.Errorf("%v: runner error %v is not a FaultLossError with %d verify errors", m, err, res.VerifyErrors)
				}
			case err == nil || !strings.Contains(err.Error(), fb.String()):
				t.Errorf("%v: runner error %v does not name the first bad range", m, err)
			}
		}
	}
}

// TestWriteThenReadOfPartialBlockVerifies is ROADMAP defect (a)'s
// minimized trace: a 1000-byte write into block 29 leaves a partially
// written tcfs frame in the cache, and a later read of another range of
// that block hits it. The read must return the file's bytes, not the
// frame's unfilled zeros, under every method.
func TestWriteThenReadOfPartialBlockVerifies(t *testing.T) {
	wl, err := workload.ParseTrace([]byte("0,0,w,239000,1000\n0.1,0,r,238000,1000\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{TraditionalCaching, DiskDirected, DiskDirectedSort, TwoPhase} {
		cfg := smokeCfg()
		cfg.Method, cfg.NCP, cfg.NIOP, cfg.NDisks, cfg.Workload = m, 1, 2, 2, wl
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.VerifyErrors != 0 {
			t.Errorf("%v: %d verification errors; first: %v", m, res.VerifyErrors, res.FirstBad)
		}
	}
}

// TestNestedRequestsVerify covers request sets in which one request's
// file range contains another's, which the disk-directed and two-phase
// methods find through SlotAccess.RunsInRange: the minimal pair (one CP
// reads [0, 65536) and [8192, 16384) under DDIO on one IOP and one disk)
// and the served-mix zipf stream of mixed record sizes (ROADMAP defect
// (c)) under every method that uses that lookup.
func TestNestedRequestsVerify(t *testing.T) {
	pair, err := workload.ParseTrace([]byte("0,0,r,0,65536\n0,0,r,8192,8192\n"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeCfg()
	cfg.Method, cfg.NCP, cfg.NIOP, cfg.NDisks, cfg.Workload = DiskDirected, 1, 1, 1, pair
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErrors != 0 {
		t.Errorf("nested pair: %d verification errors; first: %v", res.VerifyErrors, res.FirstBad)
	}

	mixed, err := workload.Parse([]byte(`{"name":"mixed","phases":[{"pattern":"zipf","requests":256,"alpha":1.2,` +
		`"record_sizes":[1000,8192,65536],"read_fraction":0.7,"arrival":"poisson","rate_per_sec":200}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{DiskDirected, DiskDirectedSort, TwoPhase} {
		for _, seed := range []int64{2, 3} {
			cfg := DefaultConfig()
			cfg.Method, cfg.FileBytes, cfg.Seed, cfg.Workload = m, MiB, seed, mixed
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v seed %d: %v", m, seed, err)
			}
			if res.VerifyErrors != 0 {
				t.Errorf("%v seed %d: %d verification errors; first: %v", m, seed, res.VerifyErrors, res.FirstBad)
			}
		}
	}
}
