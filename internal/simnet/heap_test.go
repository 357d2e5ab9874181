package simnet

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refHeap is a container/heap reference implementation over the same
// (at, seq) order — the engine the value-typed 4-ary queue replaced.
// The property test below checks both pop identical sequences under
// random interleaved pushes and pops; (at, seq) is a total order, so
// any correct heap must agree, and agreement is what keeps simulation
// replays deterministic across engine changes.
type refHeap []event

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].before(&h[j]) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old) - 1
	e := old[n]
	*h = old[:n]
	return e
}

func TestEventQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q eventQueue
	ref := &refHeap{}
	var seq uint64

	// Heavy same-instant collisions: only 16 distinct timestamps across
	// thousands of events, so tie-breaking on seq is exercised hard.
	next := func() event {
		seq++
		return event{at: Time(rng.Intn(16)) * time.Millisecond, seq: seq}
	}
	popBoth := func() (got, want event) {
		if q.len() != ref.Len() {
			t.Fatalf("length diverged: queue %d, reference %d", q.len(), ref.Len())
		}
		return q.pop(), heap.Pop(ref).(event)
	}

	for round := 0; round < 5000; round++ {
		if q.len() == 0 || rng.Intn(3) != 0 {
			e := next()
			q.push(e)
			heap.Push(ref, e)
			continue
		}
		got, want := popBoth()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("round %d: queue popped (at=%v seq=%d), reference popped (at=%v seq=%d)",
				round, got.at, got.seq, want.at, want.seq)
		}
	}
	// Drain: the suffix must agree too.
	for q.len() > 0 {
		got, want := popBoth()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("drain: queue popped (at=%v seq=%d), reference popped (at=%v seq=%d)",
				got.at, got.seq, want.at, want.seq)
		}
	}
	if ref.Len() != 0 {
		t.Fatalf("reference has %d events left after queue drained", ref.Len())
	}
}

// TestEventQueuePopZeroesSlot guards the GC-leak fix: the slot vacated
// by pop must not keep a reference to the popped event's closure.
func TestEventQueuePopZeroesSlot(t *testing.T) {
	var q eventQueue
	q.push(event{at: 1, seq: 1, fn: func() {}})
	q.pop()
	if spare := q.evs[:1][0]; spare.fn != nil || spare.net != nil {
		t.Fatal("popped slot still references its event")
	}
}

// TestScheduleStepZeroAlloc pins the engine's zero-allocation contract:
// once the heap's backing array is warm, Schedule and Run allocate
// nothing, whatever instrumentation is wired. (The old container/heap
// engine paid one allocation per scheduled event.)
func TestScheduleStepZeroAlloc(t *testing.T) {
	for _, w := range wirings {
		t.Run(w.name, func(t *testing.T) {
			s := New(1)
			w.wire(s, nil)
			fn := func() {}
			// Warm the heap's backing array past the measured burst.
			for i := 0; i < 64; i++ {
				s.Schedule(Time(i), fn)
			}
			s.Run()
			allocs := testing.AllocsPerRun(100, func() {
				for i := 0; i < 32; i++ {
					s.Schedule(Time(i), fn)
				}
				s.Run() // not a Step loop: Run is what publishes to a wired hub
			})
			if allocs != 0 {
				t.Fatalf("Schedule+Run allocated %v objects per run, want 0", allocs)
			}
		})
	}
}

// TestNetworkSendZeroAlloc pins the packet path: Send carries the packet
// to the heap by value, with no closure, whatever instrumentation is
// wired.
func TestNetworkSendZeroAlloc(t *testing.T) {
	for _, w := range wirings {
		t.Run(w.name, func(t *testing.T) {
			s := New(1)
			n := NewNetwork(s)
			w.wire(s, n)
			n.SetPath("a", "b", PathParams{Delay: time.Millisecond})
			delivered := 0
			n.Attach("b", HandlerFunc(func(pkt Packet) { delivered++ }))
			pkt := Packet{From: "a", To: "b", Size: 1200}
			// Warm the heap and the per-path state.
			for i := 0; i < 64; i++ {
				n.Send(pkt)
			}
			s.Run()
			allocs := testing.AllocsPerRun(100, func() {
				for i := 0; i < 32; i++ {
					n.Send(pkt)
				}
				s.Run()
			})
			if allocs != 0 {
				t.Fatalf("Send+deliver allocated %v objects per run, want 0", allocs)
			}
			if delivered == 0 {
				t.Fatal("no packets delivered")
			}
		})
	}
}
