package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"ddio/internal/trace"
)

// traceDigestCase is one traced run whose emitted artifacts
// TestTraceArtifactDigests pins.
type traceDigestCase struct {
	name string
	cfg  Config
}

// traceDigestCases covers every method at 8-byte records (message-heavy;
// under TC far more requests than the viewer's table keeps) and at 8 KB
// records (disk-bound), plus one faulted run so fault and retry events and the
// retry bucket of the critical path are covered.
func traceDigestCases() []traceDigestCase {
	var cases []traceDigestCase
	for _, m := range []Method{TraditionalCaching, DiskDirected, DiskDirectedSort, TwoPhase} {
		cases = append(cases, traceDigestCase{m.String() + "/rc/8B", fig3aStyle(m)})
		big := fig3aStyle(m)
		big.Pattern = "rb"
		big.RecordSize = 8192
		cases = append(cases, traceDigestCase{m.String() + "/rb/8KB", big})
	}
	faulted := smallFaulted(TraditionalCaching, "rb")
	faulted.FileBytes = MiB / 4
	return append(cases, traceDigestCase{"TC/rb/faulted", faulted})
}

// traceDigests holds the sha256 of WriteHTML, WriteJSONL and WriteCSV,
// in that order, for each of traceDigestCases. A change to how traces
// are stored or rendered must keep every byte; a change that means to
// move them updates a digest and says why.
var traceDigests = map[string][3]string{
	"TC/rc/8B":         {"3ae29d5df384b42279e2e97b7e6b580e7cd9b03a436ce1c63e8284ff0e10afcd", "ddb4861d331ddadd3c7db573dceed7ab64754d3d0cf80a21f19989722b576518", "cd486a16218ad926693e5dcfaf77ac6392c77d8dda8ad13f3e009ea1c6942623"},
	"TC/rb/8KB":        {"30694339eee6ff4e409a5d84c661f9270a97ceace1f3d6b85092cdeedff77fc3", "8dd303405ab595e306eb67b07fd007c5b8b6eeb9bff4f437d88adba03e14d7d4", "761feb3aafbb7fb586b97ec847a9ede038e687e70bf3f92dc4e7c8aaabe658d8"},
	"DDIO/rc/8B":       {"159ae2aab7789129e0306deb54dd1921788bb8ff7660b9f2e651861661bbb455", "12b4afa9163c3bb3a92223b9df490d9b887308ff0d160dba2ba377243045cc80", "e71fa8a6f0e32565b6116baca1006176f1beac9ffced15424777d74f34c15f6c"},
	"DDIO/rb/8KB":      {"0fa7849ff4700c90967e0b7f0e548aea6aa38d54aae54b1943c35f4918b3a31c", "54dac2a50c0623a314ef27a727bb1e9fe23729fbf74ff4270758a62620a304bf", "9fbe1f8d484dfeea5e3ead7236ad04fd04b52ceba218563718ef4908fa63e629"},
	"DDIO+sort/rc/8B":  {"07462d7455bff59661a1507d2428cbcdb7a70524785a0ea76c05d89c8e2b3003", "934901287fab2db02c6302de8d64840865fb01c96789f4dfdd5b50f2a0ff1872", "69a8d696d93f50649cacef36ecc684e0a8b92a25955c4312f94d8e9a98e532c4"},
	"DDIO+sort/rb/8KB": {"a3e963b9f771dfc047295785ed5c509041a61902aeb2992ca87330c87c373eed", "e34ea53754e7103d61699f10d4edcdfa1ee4d47b88dc4a7509997acd1cc63862", "c71f20f62d79ed6dd91c5fe848100008db3a409a3d727c194c6379fa63fdaeff"},
	"2phase/rc/8B":     {"037d0c104f8ed1ce5436f3f1293112f2664124888fb20be968b73837cd1f8e62", "40fe9ba962ea1e7deef2cfe05e263664cf982b401defec083eb06d905e3bcb2a", "809deb94daecf51bbec12524ef0ac55fc830a6a3dfd7e40adc8d635df18d1016"},
	"2phase/rb/8KB":    {"d0b75b9ca93c2fb0478cab4d183ad6686a8c47bcac6285c99a1b47b308bd7660", "8dd303405ab595e306eb67b07fd007c5b8b6eeb9bff4f437d88adba03e14d7d4", "761feb3aafbb7fb586b97ec847a9ede038e687e70bf3f92dc4e7c8aaabe658d8"},
	"TC/rb/faulted":    {"cf267a75b253a63baa8310608d69b37390daa99d5cedf228b9b5088f8c7a19ac", "9209198f20bf5180a6052a454a5ff8c38b3f3399d76370bc487443a00b93ea01", "a8216ec4a52d698a0a848b19e6eab04cb59f06394b4130c06bcf84237e6bc8ad"},
}

// digest returns the hex sha256 of what write emits.
func digest(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceArtifactDigests pins the exact bytes of every trace emitter
// on a small set of traced runs. TestTraceDeterministic proves a run
// repeats; this test proves a refactor of the recorder or the viewer
// emits the same bytes the code did before it.
func TestTraceArtifactDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("nine traced runs")
	}
	for _, c := range traceDigestCases() {
		_, rec, err := TracedRun(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		kinds := map[trace.Kind]int{}
		for _, e := range rec.Events() {
			kinds[e.Kind]++
		}
		if c.name == "TC/rc/8B" && kinds[trace.KindReqEnd] <= 512 {
			t.Errorf("%s: %d requests, want more than the viewer's 512-row table", c.name, kinds[trace.KindReqEnd])
		}
		if c.cfg.Faults != nil && (kinds[trace.KindFault] == 0 || kinds[trace.KindRetry] == 0) {
			t.Errorf("%s: %d faults, %d retries traced; want both", c.name, kinds[trace.KindFault], kinds[trace.KindRetry])
		}
		got := [3]string{
			digest(t, func(w io.Writer) error { return rec.WriteHTML(w, TraceTitle(c.cfg)) }),
			digest(t, rec.WriteJSONL),
			digest(t, rec.WriteCSV),
		}
		want, ok := traceDigests[c.name]
		if !ok {
			t.Errorf("%s: no pinned digest; got %q", c.name, got)
			continue
		}
		for i, format := range []string{"html", "jsonl", "csv"} {
			if got[i] != want[i] {
				t.Errorf("%s: %s digest %s, want %s", c.name, format, got[i], want[i])
			}
		}
	}
}
