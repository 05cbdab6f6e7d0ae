package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestChunkedStorageAcrossBoundaries: events recorded across many chunk
// boundaries come back complete, in seq order and unmodified; End is the
// latest edge; Events hands out a copy the recorder does not share.
func TestChunkedStorageAcrossBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, minChunk - 1, minChunk, minChunk + 1, 3*maxChunk + 17} {
		r := New()
		var end int64
		for i := 0; i < n; i++ {
			start := int64(i*7%1000) * 10
			r.DiskService("d0", start, start+int64(i%13), i%2 == 0, int64(i), i%5)
			end = max(end, start+int64(i%13))
		}
		if r.Len() != n || r.End() != end {
			t.Fatalf("n=%d: Len %d End %d, want %d and %d", n, r.Len(), r.End(), n, end)
		}
		evs := r.Events()
		if len(evs) != n || (n == 0) != (evs == nil) {
			t.Fatalf("n=%d: Events returned %d events (nil %v)", n, len(evs), evs == nil)
		}
		for i, e := range evs {
			if e.Seq != int64(i) || e.Bytes != int64(i) || e.Write != (i%2 == 0) {
				t.Fatalf("n=%d: event %d is %+v", n, i, e)
			}
		}
		for _, c := range r.chunks[:max(len(r.chunks)-1, 0)] {
			if len(c) != cap(c) {
				t.Fatalf("n=%d: chunk of cap %d holds %d events before the last chunk", n, cap(c), len(c))
			}
		}
		if n > 0 {
			evs[0].Bytes = -1
			if r.Events()[0].Bytes != 0 {
				t.Fatalf("n=%d: Events shares storage with the recorder", n)
			}
		}
	}
}

// TestRecordingNeverMovesEvents: appending never copies or moves an
// event already recorded, so pointers into storage stay valid.
func TestRecordingNeverMovesEvents(t *testing.T) {
	r := New()
	r.NetMsg("CP0", "IOP0", 0, 8)
	var first *Event
	for e := range r.all() {
		first = e
	}
	for i := 0; i < 2*maxChunk; i++ {
		r.NetMsg("CP0", "IOP0", int64(i), 8)
	}
	for e := range r.all() {
		if e != first {
			t.Fatal("first event moved while recording")
		}
		break
	}
}

// randomTrace builds a trace of n requests with many ties in duration,
// node, id and start, over disk, retry and pool activity.
func randomTrace(rng *rand.Rand, n int) *Recorder {
	r := New()
	nodes := []string{"IOP0", "IOP1", "IOP2"}
	for i := 0; i < n; i++ {
		node := nodes[rng.Intn(len(nodes))]
		start := int64(rng.Intn(200)) * 50
		switch rng.Intn(4) {
		case 0:
			d := int64(rng.Intn(6)) * 100
			r.DiskService(fmt.Sprintf("d%d", rng.Intn(4)), start, start+d, false, 8192, 0)
		case 1:
			r.Retry(node, start, start+int64(rng.Intn(300)), 1)
		case 2:
			r.PoolBusy("tc-svc:"+node, start, start+int64(rng.Intn(300)))
		}
		r.RequestEnd(node, int64(rng.Intn(20)), start, start+int64(rng.Intn(8))*100)
	}
	return r
}

// TestSlowestRequestsMatchFullSort: the bounded-heap selection and the
// decomposition of just the kept requests give the viewer's table
// exactly what decomposing every request and stable-sorting them all
// gives.
func TestSlowestRequestsMatchFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 30, 700, 3000} {
		r := randomTrace(rng, n)
		all := r.CriticalPaths()
		sort.SliceStable(all, func(i, j int) bool {
			di, dj := all[i].End-all[i].Start, all[j].End-all[j].Start
			if di != dj {
				return di > dj
			}
			if all[i].Node != all[j].Node {
				return all[i].Node < all[j].Node
			}
			if all[i].ID != all[j].ID {
				return all[i].ID < all[j].ID
			}
			return all[i].Start < all[j].Start
		})
		for _, k := range []int{1, 7, htmlMaxRequests, 5000} {
			got, total := r.slowestRequests(k)
			if total != len(all) {
				t.Fatalf("n=%d k=%d: total %d, want %d", n, k, total, len(all))
			}
			want := all[:min(k, len(all))]
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: kept %d, want %d", n, k, len(got), len(want))
			}
			u := r.pathUnions()
			for i, e := range got {
				if p := u.decompose(e); p != want[i] {
					t.Fatalf("n=%d k=%d: row %d is %+v, want %+v", n, k, i, p, want[i])
				}
			}
		}
	}
}

// jsonEvent is the encoding/json form of an event, the oracle for
// WriteJSONL's hand-built lines.
type jsonEvent struct {
	Seq   int64  `json:"seq"`
	Kind  string `json:"kind"`
	T     int64  `json:"t_ns"`
	End   *int64 `json:"end_ns,omitempty"`
	Node  string `json:"node,omitempty"`
	Peer  string `json:"peer,omitempty"`
	Write *bool  `json:"write,omitempty"`
	Bytes *int64 `json:"bytes,omitempty"`
	Depth *int64 `json:"depth,omitempty"`
	Cyls  *int64 `json:"cyls,omitempty"`
	ID    *int64 `json:"id,omitempty"`
}

// TestWriteJSONLMatchesEncodingJSON: every kind, zero and negative
// values, and names that need escaping encode exactly as json.Encoder
// encodes the equivalent struct.
func TestWriteJSONLMatchesEncodingJSON(t *testing.T) {
	names := []string{"", "d0", "tc-svc:IOP2", `a"b`, `a\b`, "a<b", "a>b", "a&b", "tab\there", "é", "\u2028", "\x7f", "bad\xffutf8", "nl\n\x01"}
	r := New()
	for i, name := range names {
		peer := names[(i+3)%len(names)]
		v := int64(i) - 3
		r.DiskService(name, v, v+5, i%2 == 0, v, i)
		r.DiskQueue(name, v, i)
		r.DiskSeek(name, v, v)
		r.RequestStart(name, v, v, i%2 == 1, v)
		r.RequestEnd(name, v, v, v+1)
		r.PoolBusy(name, v, v+2)
		r.Buffer(name, v, i, 2*i)
		r.NetMsg(name, peer, v, v)
		r.Fault(name, v, peer)
		r.Retry(name, v, v+3, i)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, e := range r.Events() {
		fs := kindFields[e.Kind]
		je := jsonEvent{Seq: e.Seq, Kind: e.Kind.String(), T: e.T, Node: e.Node, Peer: e.Peer}
		if fs.end {
			je.End = &e.End
		}
		if fs.write {
			je.Write = &e.Write
		}
		if fs.bytes {
			je.Bytes = &e.Bytes
		}
		if fs.depth {
			je.Depth = &e.Depth
		}
		if fs.cyls {
			je.Cyls = &e.Cyls
		}
		if fs.id {
			je.ID = &e.ID
		}
		if err := enc.Encode(&je); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	if err := r.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d:\n got %s\nwant %s", i, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
