package sim

import (
	"testing"
	"time"
)

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox(e, "m")
	mb.Put(1)
	mb.Put(2)
	mb.Put(3)
	var got []int
	e.Go("r", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Get(p).(int))
		}
	})
	e.Run()
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order %v", got)
	}
}

func TestMailboxGetBlocksUntilPut(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox(e, "m")
	var at Time
	e.Go("r", func(p *Proc) {
		v := mb.Get(p).(string)
		at = p.Now()
		if v != "hello" {
			t.Errorf("got %q", v)
		}
	})
	e.After(5*time.Millisecond, func() { mb.Put("hello") })
	e.Run()
	if at != Time(5*time.Millisecond) {
		t.Fatalf("received at %v, want 5ms", at)
	}
}

func TestMailboxMultipleWaitersFIFO(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox(e, "m")
	var got []string
	for _, n := range []string{"a", "b"} {
		n := n
		e.Go(n, func(p *Proc) {
			v := mb.Get(p).(int)
			got = append(got, n)
			_ = v
		})
	}
	e.After(time.Millisecond, func() { mb.Put(1); mb.Put(2) })
	e.Run()
	if len(got) != 2 || got[0] != "a" {
		t.Fatalf("waiter order %v, want a first", got)
	}
}

func TestMailboxTryGet(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox(e, "m")
	if _, ok := mb.TryGet(); ok {
		t.Fatal("TryGet on empty mailbox succeeded")
	}
	mb.Put(9)
	v, ok := mb.TryGet()
	if !ok || v.(int) != 9 {
		t.Fatalf("TryGet = %v,%v", v, ok)
	}
	if mb.Len() != 0 {
		t.Fatalf("Len %d after drain", mb.Len())
	}
	if mb.Delivered() != 1 {
		t.Fatalf("Delivered %d", mb.Delivered())
	}
}

// TestMailboxRingWrapsInOrder drives the message ring through every
// wrap-around and growth case: depths that rise and fall across the
// power-of-two boundaries while the head keeps advancing. FIFO order and
// Len must hold throughout, and every slot a Get vacates is cleared.
func TestMailboxRingWrapsInOrder(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox(e, "m")
	next, want := 0, 0
	for _, depth := range []int{1, 7, 8, 9, 3, 16, 17, 2, 40, 0, 33} {
		for mb.Len() < depth {
			mb.Put(next)
			next++
		}
		for mb.Len() > depth/2 {
			v, ok := mb.TryGet()
			if !ok || v.(int) != want {
				t.Fatalf("TryGet = %v,%v, want %d", v, ok, want)
			}
			want++
		}
	}
	for mb.Len() > 0 {
		if v, _ := mb.TryGet(); v.(int) != want {
			t.Fatalf("drain got %v, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d of %d messages", want, next)
	}
	for i, v := range mb.queue.buf {
		if v != nil {
			t.Fatalf("slot %d still holds %v after drain", i, v)
		}
	}
}

// TestMailboxSteadyStateAllocFree: a mailbox cycling at a steady depth,
// with its receiver parking and waking on every message, allocates
// nothing once its rings have grown to fit.
func TestMailboxSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	mb := NewMailbox(e, "m")
	e.GoDaemon("r", func(p *Proc) {
		for {
			mb.Get(p)
		}
	})
	msg := any(1)
	put := func() { mb.Put(msg) }
	cycle := func() {
		for i := 0; i < 4; i++ {
			e.After(time.Duration(i), put)
		}
		e.Run()
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("%.1f allocs per 4-message cycle, want 0", a)
	}
}
