package sim

// The engine's pending-event set is a 4-ary min-heap ordered by (t, seq):
// virtual time first, then scheduling sequence, so events scheduled for
// the same instant fire in FIFO order. (t, seq) is a strict total order,
// so the firing sequence is fully determined by what was scheduled; the
// heap's shape is invisible to any simulation (TestEngineFiringTraceGolden
// pins the trace).
//
// The heap moves only compact 24-byte keys. Each key names a slot in a
// slab of event payloads; popped slots go on a free list and are reused,
// so a steady-state run allocates nothing here. Four children per node
// halve the depth of a binary heap, and each sift-down step compares
// four adjacent keys (PERF.md pass 8 has the arity A/B).

// heapKey is one heap entry: the ordering key plus the payload's slot.
type heapKey struct {
	t    Time
	seq  int64
	slot int32
}

func (a heapKey) less(b heapKey) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// eventHeap is the engine's priority queue of pending events.
type eventHeap struct {
	keys []heapKey // 4-ary min-heap: children of i are 4i+1 … 4i+4
	slab []event   // payloads, indexed by heapKey.slot
	free []int32   // vacant slab slots
}

func (h *eventHeap) len() int { return len(h.keys) }

// push stores ev in a free slot and inserts its key. The caller
// guarantees seq is unique and increasing.
func (h *eventHeap) push(t Time, seq int64, ev event) {
	var slot int32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[slot] = ev
	} else {
		slot = int32(len(h.slab))
		h.slab = append(h.slab, ev)
	}
	k := heapKey{t: t, seq: seq, slot: slot}
	h.keys = append(h.keys, k)
	keys := h.keys
	i := len(keys) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !k.less(keys[parent]) {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	keys[i] = k
}

// min returns the time of the earliest pending event. The heap must not
// be empty.
func (h *eventHeap) min() Time { return h.keys[0].t }

// pop removes the (t, seq)-minimum event and returns its time and
// payload. Its slab slot is cleared, so the heap keeps no reference to
// the payload's closure, proc or target, and freed for reuse.
func (h *eventHeap) pop() (Time, event) {
	keys := h.keys
	top := keys[0]
	n := len(keys) - 1
	last := keys[n]
	keys = keys[:n]
	h.keys = keys
	if n > 0 {
		// Sift the former last key down from the root, moving the hole
		// rather than swapping.
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			end := min(c+4, n)
			for j := c + 1; j < end; j++ {
				if keys[j].less(keys[m]) {
					m = j
				}
			}
			if !keys[m].less(last) {
				break
			}
			keys[i] = keys[m]
			i = m
		}
		keys[i] = last
	}
	ev := h.slab[top.slot]
	h.slab[top.slot] = event{}
	h.free = append(h.free, top.slot)
	return top.t, ev
}

// clear drops every pending event and releases the storage.
func (h *eventHeap) clear() { *h = eventHeap{} }
