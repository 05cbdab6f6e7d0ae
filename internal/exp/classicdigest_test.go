package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ddio/internal/hpf"
	"ddio/internal/pfs"
)

// classicDigests pins the sha256 of every Figure 3/4 grid cell's
// outcome — 19 patterns × 4 methods × 2 layouts — at two small scales:
// 8 KB records over 1 MiB and 8-byte records over 64 KiB. Each cell
// contributes its method, pattern, layout, events, elapsed nanoseconds,
// interconnect messages, disk reads and writes, verification errors and
// throughput. A change to how classic cells run must keep every value.
var classicDigests = map[string]string{
	"8KB/1MiB": "f565ce453467cf6e573efad66fb1c576abb8546a6395c363f6d61fe3514298e6",
	"8B/64KiB": "26f266985a455340d2d0405bfb85bb0ff7459c952109fc5c581979e8dbec2d5d",
}

// TestClassicCellDigests runs the whole grid at both scales and compares
// each scale's digest with the pinned one.
func TestClassicCellDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("304 grid runs")
	}
	for _, sc := range []struct {
		name   string
		record int
		file   int64
	}{{"8KB/1MiB", 8192, MiB}, {"8B/64KiB", 8, 64 << 10}} {
		var cfgs []Config
		for _, layout := range []pfs.LayoutKind{pfs.RandomBlocks, pfs.Contiguous} {
			for _, pat := range hpf.AllPatterns() {
				for _, m := range []Method{TraditionalCaching, DiskDirected, DiskDirectedSort, TwoPhase} {
					cfg := DefaultConfig()
					cfg.Method, cfg.Pattern, cfg.Layout = m, pat, layout
					cfg.RecordSize, cfg.FileBytes = sc.record, sc.file
					cfgs = append(cfgs, cfg)
				}
			}
		}
		results, err := NewRunner(0, nil).RunAll(cfgs, nil)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		h := sha256.New()
		for i, r := range results {
			c := cfgs[i]
			fmt.Fprintf(h, "%v %s %v %d %d %d %d %d %d %.17g\n", c.Method, c.Pattern, c.Layout,
				r.Events, r.Elapsed.Nanoseconds(), r.NetMsgs, r.Disk.Reads, r.Disk.Writes, r.VerifyErrors, r.MBps)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != classicDigests[sc.name] {
			t.Errorf("%s: digest %s, want %s", sc.name, got, classicDigests[sc.name])
		}
	}
}
