package sim

// Mailbox is an unbounded FIFO message queue with blocking receive, the
// basic transport endpoint for simulated nodes. Put never blocks (the
// interconnect applies backpressure through its bandwidth pipes instead);
// Get blocks the calling proc until a message is available.
type Mailbox struct {
	eng       *Engine
	name      string
	parkLabel string // precomputed park reason (avoids per-wait concat)
	queue     ring[any]
	waits     ring[*Proc]
	puts      int64
}

// NewMailbox returns an empty mailbox.
func NewMailbox(e *Engine, name string) *Mailbox {
	return &Mailbox{eng: e, name: name, parkLabel: "mailbox " + name}
}

// Put appends v and wakes the oldest waiting receiver, if any. It may be
// called from proc or event context.
func (m *Mailbox) Put(v any) {
	m.queue.push(v)
	m.puts++
	if m.waits.n > 0 {
		m.eng.wake(m.waits.pop())
	}
}

// Get removes and returns the oldest message, blocking p until one is
// available.
func (m *Mailbox) Get(p *Proc) any {
	for m.queue.n == 0 {
		m.waits.push(p)
		p.park(m.parkLabel)
	}
	return m.queue.pop()
}

// TryGet removes and returns the oldest message without blocking; ok
// reports whether a message was available.
func (m *Mailbox) TryGet() (v any, ok bool) {
	if m.queue.n == 0 {
		return nil, false
	}
	return m.queue.pop(), true
}

// Len returns the number of queued messages.
func (m *Mailbox) Len() int { return m.queue.n }

// Delivered returns the total number of messages ever Put (diagnostic).
func (m *Mailbox) Delivered() int64 { return m.puts }

// ring is an unbounded FIFO on a power-of-two circular buffer. It grows
// by doubling and never shrinks, so a queue that cycles at a steady depth
// stops allocating once the buffer fits it.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of queued elements
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(8, 2*len(r.buf)))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element; the ring must not be empty.
// The vacated slot is zeroed so the ring holds no stale reference.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}
