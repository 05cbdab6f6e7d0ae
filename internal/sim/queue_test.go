package sim

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sortOracle is the reference priority queue: a slice kept sorted by
// (t, seq), popped from the front.
type sortOracle []heapKey

func (o *sortOracle) push(k heapKey) {
	s := *o
	i := sort.Search(len(s), func(i int) bool { return k.less(s[i]) })
	s = append(s, heapKey{})
	copy(s[i+1:], s[i:])
	s[i] = k
	*o = s
}

func (o *sortOracle) pop() heapKey {
	k := (*o)[0]
	*o = (*o)[1:]
	return k
}

// pushTagged pushes an event whose payload records its own seq, so a pop
// can check that the payload came back with its key.
func pushTagged(h *eventHeap, t Time, seq int64) {
	h.push(t, seq, event{arg: seq})
}

// popChecked pops h and fails unless the result is want, payload included.
func popChecked(tb testing.TB, h *eventHeap, want heapKey, ctx string) {
	tb.Helper()
	t, ev := h.pop()
	if t != want.t || ev.arg != want.seq {
		tb.Fatalf("%s: popped (t=%d, payload seq %d), want (t=%d, seq %d)", ctx, t, ev.arg, want.t, want.seq)
	}
}

// TestQueueMatchesSortOracle is the heap's defining property: on
// randomized interleavings of pushes and pops — every push at or after
// the last popped time, as the engine guarantees, with same-instant ties,
// near and far deltas, and bursts that deepen the heap by hundreds — it
// pops exactly what a sorted slice pops, payload for payload.
func TestQueueMatchesSortOracle(t *testing.T) {
	deltas := []int64{0, 0, 1, 3, 100, 4096, 65536, 1 << 22, 1 << 34}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var ref sortOracle
		var seq int64
		low := Time(0) // last popped time: pushes may not precede it
		for op := 0; op < 5000; op++ {
			if h.len() != len(ref) {
				t.Fatalf("seed %d op %d: len %d, oracle %d", seed, op, h.len(), len(ref))
			}
			if len(ref) == 0 || rng.Intn(3) > 0 {
				burst := 1
				if rng.Intn(20) == 0 {
					burst = 50 + rng.Intn(200)
				}
				for i := 0; i < burst; i++ {
					seq++
					tt := low + Time(deltas[rng.Intn(len(deltas))])
					pushTagged(&h, tt, seq)
					ref.push(heapKey{t: tt, seq: seq})
				}
				continue
			}
			want := ref.pop()
			if h.min() != want.t {
				t.Fatalf("seed %d op %d: min %d, oracle %d", seed, op, h.min(), want.t)
			}
			popChecked(t, &h, want, "seed "+strconv.FormatInt(seed, 10))
			low = want.t
		}
		for len(ref) > 0 {
			popChecked(t, &h, ref.pop(), "drain")
		}
		if h.len() != 0 {
			t.Fatalf("seed %d: %d events left after the oracle drained", seed, h.len())
		}
	}
}

// TestQueueSameInstantFIFO pins the tie-break rule in isolation: many
// events at one instant fire in push order.
func TestQueueSameInstantFIFO(t *testing.T) {
	var h eventHeap
	for i := 1; i <= 1000; i++ {
		pushTagged(&h, 42, int64(i))
	}
	for i := 1; i <= 1000; i++ {
		popChecked(t, &h, heapKey{t: 42, seq: int64(i)}, "tie "+strconv.Itoa(i))
	}
}

// TestQueueBoundarySizes drains heaps whose sizes sit on and around the
// 4-ary level boundaries (1, 5, 21, 85, 341, 1365 nodes fill whole
// levels), where a sift-down meets a node with fewer than four children.
func TestQueueBoundarySizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 20, 21, 22, 84, 85, 86, 340, 341, 342, 1364, 1365, 1366} {
		var h eventHeap
		var ref sortOracle
		for i := 1; i <= n; i++ {
			tt := Time(rng.Intn(n/2 + 1)) // about two events per instant
			pushTagged(&h, tt, int64(i))
			ref.push(heapKey{t: tt, seq: int64(i)})
		}
		for len(ref) > 0 {
			popChecked(t, &h, ref.pop(), "size "+strconv.Itoa(n))
		}
		if h.len() != 0 {
			t.Fatalf("size %d: %d left", n, h.len())
		}
	}
}

// TestQueueSlotReuseAfterDrain fills the heap, drains it, and fills it
// again: the refill must reuse the drained slab slots rather than grow
// the slab, and order must stay exact across the reuse.
func TestQueueSlotReuseAfterDrain(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(9))
	var h eventHeap
	var seq int64
	for round := 0; round < 3; round++ {
		var ref sortOracle
		for i := 0; i < n; i++ {
			seq++
			tt := Time(round)<<40 + Time(rng.Int63n(1<<30))
			pushTagged(&h, tt, seq)
			ref.push(heapKey{t: tt, seq: seq})
		}
		if len(h.slab) != n {
			t.Fatalf("round %d: slab holds %d slots for %d events", round, len(h.slab), n)
		}
		for len(ref) > 0 {
			popChecked(t, &h, ref.pop(), "round "+strconv.Itoa(round))
		}
		if len(h.free) != n {
			t.Fatalf("round %d: %d free slots after draining %d events", round, len(h.free), n)
		}
	}
}

// testTarget is a CompletionTarget for payload-release checks.
type testTarget struct{}

func (*testTarget) Complete(Completion, Time) {}

// TestQueuePopReleasesPayload: a popped event's slab slot keeps no
// reference to its closure, proc or completion target, so the garbage
// collector can reclaim them while the slot waits for reuse.
func TestQueuePopReleasesPayload(t *testing.T) {
	var h eventHeap
	h.push(1, 1, event{fn: func() {}})
	h.push(2, 2, event{p: &Proc{}, gen: 7})
	h.push(3, 3, event{tgt: &testTarget{}, gen: 1, kind: 2, arg: 3})
	for h.len() > 0 {
		h.pop()
	}
	for i, ev := range h.slab {
		if ev.fn != nil || ev.p != nil || ev.tgt != nil || ev.gen != 0 || ev.kind != 0 || ev.arg != 0 {
			t.Fatalf("slot %d still holds a popped payload: %+v", i, ev)
		}
	}
}

// -update rewrites the engine firing-trace golden instead of comparing.
var update = flag.Bool("update", false, "rewrite testdata/engine_trace.golden")

// firingTrace runs a fixed random workload that touches every event kind
// — callbacks, proc dispatch tokens, completion tokens — through
// sleepers, a contended semaphore, zero-delay wakes, a mailbox, a burst
// of several hundred same-instant-heavy events that makes the pending
// set deep, and a RunUntil pause that leaves events queued. It returns
// one "time tag" line per observable action, in firing order.
func firingTrace() []string {
	e := NewEngine()
	defer e.Close()
	var out []string
	note := func(tag string) { out = append(out, e.Now().String()+" "+tag) }
	rng := rand.New(rand.NewSource(31))
	sem := NewSemaphore(e, "s", 2)
	mb := NewMailbox(e, "mb")
	for i := 0; i < 40; i++ {
		tag := strconv.Itoa(i)
		d := time.Duration(rng.Int63n(int64(5 * time.Microsecond)))
		e.Go("p"+tag, func(p *Proc) {
			p.Sleep(d)
			sem.Acquire(p, 1)
			note("acq" + tag)
			p.Sleep(time.Duration(rng.Int63n(int64(time.Microsecond))))
			note("rel" + tag)
			sem.Release(1)
			mb.Put(tag)
		})
		e.After(d/2, func() { note("ev" + tag) })
	}
	e.Go("sink", func(p *Proc) {
		for i := 0; i < 40; i++ {
			note("got" + mb.Get(p).(string))
		}
	})
	// The burst lands on only 64 distinct instants, so long same-instant
	// runs must fire in scheduling order.
	for i := 0; i < 600; i++ {
		tag := "b" + strconv.Itoa(i)
		at := Time(rng.Int63n(64)) * Time(100*time.Nanosecond)
		if i%3 == 0 {
			e.AtCompletion(at, Callback(func(Time) { note(tag) }))
		} else {
			e.At(at, func() { note(tag) })
		}
	}
	e.RunUntil(Time(2 * time.Microsecond))
	note("pause pending=" + strconv.Itoa(e.Pending()))
	e.Run()
	return out
}

// TestEngineFiringTraceGolden pins the engine's complete firing order to
// a golden captured on the calendar/hybrid queue engine this heap
// replaced (all three of its queue kinds reproduced it). Any queue that
// honours the strict (t, seq) order reproduces the trace line for line,
// so a queue change never needs to regenerate it.
func TestEngineFiringTraceGolden(t *testing.T) {
	got := strings.Join(firingTrace(), "\n") + "\n"
	path := filepath.Join("testdata", "engine_trace.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s: %v", path, err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range g {
			if i >= len(w) || g[i] != w[i] {
				t.Fatalf("firing trace diverges from %s at line %d: got %q", path, i+1, g[i])
			}
		}
		t.Fatalf("firing trace stops at line %d of %s's %d", len(g), path, len(w))
	}
}

// BenchmarkQueue measures push/pop throughput on a hold-model workload
// (pop one, push one a random distance ahead), the steady state the
// engine presents, from a shallow queue to the 32k pending events of the
// deepest 8-byte-record runs.
func BenchmarkQueue(b *testing.B) {
	for _, size := range []int{16, 128, 1024, 8192, 32768} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var h eventHeap
			var seq int64
			for i := 0; i < size; i++ {
				seq++
				h.push(Time(rng.Int63n(1<<20)), seq, event{})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now, _ := h.pop()
				seq++
				h.push(now+Time(rng.Int63n(1<<20)), seq, event{})
			}
		})
	}
}
