// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel plays the role Proteus played in the paper: it advances a
// virtual clock from event to event and runs simulated "processes"
// (cooperatively scheduled goroutines) one at a time, so a run is a pure
// function of its inputs and seeds. Entities that need to block — disk
// servers, cache handler threads, compute-processor request pumps — are
// Procs; cheap asynchronous activity (message delivery, DMA deposit) is
// modeled with plain timed events.
//
// Time is absolute virtual time in nanoseconds (Time); durations use the
// standard time.Duration. The engine is not safe for concurrent use from
// multiple OS threads: all interaction happens either before Run, from
// within event callbacks, or from within Procs.
package sim

import (
	"fmt"
	"sort"
	"time"

	"ddio/internal/trace"
)

// Time is an absolute virtual time in nanoseconds since the start of the
// simulation.
type Time int64

// Seconds converts t to seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration converts t, interpreted as a span since time zero, to a
// time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns t shifted by d. Negative results are clamped to t itself,
// since the engine cannot schedule into the past.
func (t Time) Add(d time.Duration) Time {
	u := t + Time(d)
	if u < t && d > 0 { // overflow; callers never get here in practice
		panic("sim: time overflow")
	}
	return u
}

// String formats t as a duration since time zero (e.g. "1.5ms").
func (t Time) String() string { return time.Duration(t).String() }

// event is the payload of a single scheduled callback, proc-dispatch
// token, or completion token. Its time and FIFO sequence number live in
// the event heap's key (queue.go).
//
// A callback event carries fn. A proc dispatch token instead carries
// (p, gen): when it fires, p is dispatched only if its generation still
// matches, so a token left queued past its incarnation's death — the
// proc may already be recycled into an unrelated incarnation — is
// dropped harmlessly. A completion token carries (tgt, gen, kind, arg)
// and fires tgt.Complete; pooled targets use gen the same way procs do
// (see completion.go). Tokens need no closure, which is what lets
// sleeps, wakes, spawns, and message completions run allocation-free.
type event struct {
	fn   func()
	p    *Proc            // non-nil: dispatch token for p...
	gen  uint64           // ...valid while p.gen (or the target's gen) equals this
	tgt  CompletionTarget // non-nil: completion token
	kind uint8
	arg  int64
}

// Engine is a discrete-event simulator instance.
//
// The zero value is not usable; create engines with NewEngine.
//
// Exactly one goroutine — the Run caller or one proc — executes
// simulation code at any moment. That goroutine holds the "execution
// token" and runs the event loop itself; when an event dispatches a proc,
// the token moves to that proc with a single channel send, and when a
// proc parks, its goroutine keeps the token and continues the event loop
// in place. This halves the channel traffic of a hub-and-spoke scheduler
// (one operation per handoff instead of two).
type Engine struct {
	now      Time
	queue    eventHeap
	seq      int64           // FIFO tie-break for events at the same instant
	xfer     *Proc           // proc to hand the token to after the current event
	cur      *Proc           // proc currently executing (nil in event context)
	rootWake chan struct{}   // returns the token to the Run caller when the loop ends
	cond     func(Time) bool // run-limit predicate for the current Run/RunUntil
	procs    map[*Proc]struct{}
	free     []*Proc // dead procs (with parked goroutines) awaiting reuse
	running  bool
	closed   bool
	events   int64           // total events fired, for diagnostics
	rec      *trace.Recorder // nil unless event tracing is attached
}

// NewEngine returns a new engine with the clock at zero and no pending
// events.
func NewEngine() *Engine {
	return &Engine{
		rootWake: make(chan struct{}),
		procs:    make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetRecorder attaches an event-trace recorder (nil detaches). The
// recorder is passive — it never schedules events — so a traced run
// fires the identical event sequence as an untraced one. Attach before
// building the machine: components capture the recorder when they are
// constructed.
func (e *Engine) SetRecorder(r *trace.Recorder) { e.rec = r }

// Recorder returns the attached trace recorder. A nil result is a valid
// "tracing off" recorder: all its record methods are no-ops, so
// instrumentation sites use the return unconditionally.
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// Events returns the number of events fired so far (diagnostic).
func (e *Engine) Events() int64 { return e.events }

// Pending reports the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return e.queue.len() }

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) is an error and panics: it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	if e.closed {
		return
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (now=%v, t=%v, by %s)", e.now, t, e.curName()))
	}
	e.schedule(t, event{fn: fn})
}

// schedule queues ev at t behind every event already queued for t.
func (e *Engine) schedule(t Time, ev event) {
	e.seq++
	e.queue.push(t, e.seq, ev)
}

// curName describes who is executing right now, for panic diagnostics:
// the running proc's name, or "event context" between procs.
func (e *Engine) curName() string {
	if e.cur != nil {
		return "proc " + e.cur.name
	}
	return "event context"
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// atProc schedules a dispatch token for p at absolute time t, tagged with
// p's current generation. Allocation-free: the token is two words in
// the event slab, no closure.
func (e *Engine) atProc(t Time, p *Proc) {
	if e.closed {
		return
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (now=%v, t=%v, proc=%s, by %s)", e.now, t, p.name, e.curName()))
	}
	e.schedule(t, event{p: p, gen: p.gen})
}

// Run executes events in timestamp order until no events remain. Procs
// that are still blocked when the queue drains stay blocked (see
// BlockedProcs and Close). Run may be called again after it returns if
// new events have been scheduled.
func (e *Engine) Run() {
	e.runWhile(func(Time) bool { return true })
}

// RunUntil executes events with timestamps <= t, then stops, leaving the
// clock at min(t, time of last event). Events after t remain queued.
func (e *Engine) RunUntil(t Time) {
	e.runWhile(func(et Time) bool { return et <= t })
	if e.now < t && e.queue.len() == 0 {
		e.now = t
	}
}

func (e *Engine) runWhile(cond func(Time) bool) {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	e.cond = cond
	if e.loop(nil) == tokenMoved {
		// The token moved to a proc; wait for it to come back when the
		// queue drains or the run limit is reached.
		<-e.rootWake
	}
	e.cond = nil
	e.running = false
}

// tokenState reports where the execution token went when loop returned.
type tokenState int

const (
	// tokenDrained: the queue drained or the run limit was reached; the
	// calling goroutine still holds the token.
	tokenDrained tokenState = iota
	// tokenMoved: the token was handed to another proc; the caller must
	// wait for its own wake-up.
	tokenMoved
	// tokenSelf: the owner proc itself was dispatched; it may continue
	// immediately without any channel operation.
	tokenSelf
)

// loop fires events on the calling goroutine until the queue drains, the
// run condition fails, or an event hands the execution token to a proc.
// owner is the proc whose goroutine is running the loop (nil for the Run
// caller): dispatching the owner itself short-circuits without touching
// any channel, which makes a plain sleep-and-wake — the single most
// common blocking pattern — free of context switches when no other work
// intervenes.
func (e *Engine) loop(owner *Proc) tokenState {
	for e.queue.len() > 0 {
		if !e.cond(e.queue.min()) {
			return tokenDrained
		}
		t, ev := e.queue.pop()
		e.now = t
		e.events++
		if ev.p != nil {
			// Dispatch token: valid only while the generation matches. A
			// mismatch means the target incarnation died (and the proc
			// was possibly recycled) after this token was queued — the
			// stale wake-up fires as a harmless no-op event.
			if ev.gen == ev.p.gen {
				e.dispatch(ev.p)
			}
		} else if ev.tgt != nil {
			// Completion token. Staleness is the target's concern: a
			// pooled target checks ev.gen against its current
			// incarnation inside Complete (the engine cannot, since
			// target generations live in the target).
			ev.tgt.Complete(Completion{Target: ev.tgt, Gen: ev.gen, Kind: ev.kind, Arg: ev.arg}, t)
		} else {
			ev.fn()
		}
		if p := e.xfer; p != nil {
			e.xfer = nil
			e.cur = p
			if p == owner {
				return tokenSelf
			}
			p.resume <- struct{}{}
			return tokenMoved
		}
	}
	return tokenDrained
}

// dispatch marks p as the next owner of the execution token. It must only
// be called from event context; the event loop performs the actual
// handoff after the current callback returns.
func (e *Engine) dispatch(p *Proc) {
	if p.dead {
		return
	}
	if e.xfer != nil {
		panic(fmt.Sprintf("sim: two procs dispatched by one event (%s then %s at %v)", e.xfer.name, p.name, e.now))
	}
	e.xfer = p
}

// wake schedules p to resume at the current instant, after any events
// already queued for this instant (FIFO fairness).
func (e *Engine) wake(p *Proc) {
	e.atProc(e.now, p)
}

// BlockedProcs returns the names and park-states of procs that are
// currently blocked, sorted so diagnostics are stable run-to-run. After
// Run returns, a non-empty result usually indicates a deadlock or a
// daemon process awaiting shutdown.
func (e *Engine) BlockedProcs() []string {
	var out []string
	for p := range e.procs {
		out = append(out, p.name+" ["+p.parkState()+"]")
	}
	sort.Strings(out)
	return out
}

// NumBlocked returns the number of currently blocked procs, excluding
// daemons (dispatch loops, disk servers, idle pool workers — procs
// spawned with GoDaemon or parked by a ServicePool). After a successful
// run it should be zero; anything else is a leaked transient proc.
func (e *Engine) NumBlocked() int {
	n := 0
	for p := range e.procs {
		if !p.daemon {
			n++
		}
	}
	return n
}

// Close terminates all blocked procs (and the parked goroutines of
// recycled procs on the free list) and discards pending events. It is
// safe to call multiple times. After Close the engine rejects new events
// and new procs. Close must not be called from inside the simulation.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.queue.clear()
	for p := range e.procs {
		delete(e.procs, p)
		e.kill(p)
	}
	for i, p := range e.free {
		e.free[i] = nil
		e.kill(p)
	}
	e.free = nil
}

// kill shuts down one proc goroutine and waits for it to exit.
func (e *Engine) kill(p *Proc) {
	p.killed = true
	close(p.resume)
	<-p.exited
}
