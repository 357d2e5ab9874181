// Package simnet is a deterministic discrete-event network simulator.
// It provides a virtual clock, an event queue, and a packet network of
// hosts connected by directional paths with propagation delay, jitter,
// bandwidth and loss. Everything above it (TCP, HTTP, the FE/BE service
// models) runs in virtual time, so a full 250-vantage-point measurement
// campaign executes in milliseconds of wall time and reproduces exactly
// for a given seed.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	rt "fesplit/internal/obs/runtime"
)

// Time is virtual time since the start of the simulation.
type Time = time.Duration

// event is one scheduled unit of work. seq breaks ties so same-instant
// events run in schedule order (stable, deterministic).
//
// Two variants share the struct: a callback event runs fn; a packet
// event (net non-nil) delivers pkt to its destination host. Packet
// delivery is a dedicated variant rather than a closure so Network.Send
// stays allocation-free — the packet rides in the heap slot by value
// instead of being boxed into a captured closure.
type event struct {
	at  Time
	seq uint64
	fn  func()
	net *Network // when non-nil, deliver pkt instead of calling fn
	pkt Packet
}

// before reports whether e orders ahead of o: earlier time first,
// schedule order within the same instant. (at, seq) is a total order —
// seq is unique — so every correct heap pops the same sequence and the
// simulation stays deterministic regardless of heap shape.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a value-typed 4-ary min-heap of events ordered by
// (at, seq). Compared to container/heap over *event it removes the
// per-Schedule event allocation and the interface{} conversions on
// every push/pop (the old engine paid 1 alloc + 24 B per Schedule);
// the 4-ary layout halves the tree depth, so sift-down's extra child
// compares are paid back by fewer levels of 88-byte value moves.
type eventQueue struct {
	evs []event
}

func (q *eventQueue) len() int { return len(q.evs) }

// head returns the next event's slot without removing it. Only valid
// when len() > 0.
func (q *eventQueue) head() *event { return &q.evs[0] }

// push inserts e, restoring the heap property by sifting up.
func (q *eventQueue) push(e event) {
	q.evs = append(q.evs, e)
	evs := q.evs
	i := len(evs) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !evs[i].before(&evs[p]) {
			break
		}
		evs[i], evs[p] = evs[p], evs[i]
		i = p
	}
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() event {
	evs := q.evs
	root := evs[0]
	n := len(evs) - 1
	evs[0] = evs[n]
	// Zero the vacated slot: it lives beyond len and would otherwise
	// pin the callback closure and packet payload for the GC.
	evs[n] = event{}
	q.evs = evs[:n]
	if n > 1 {
		q.siftDown()
	}
	return root
}

// siftDown restores the heap property from the root after pop replaced
// it with the last element.
func (q *eventQueue) siftDown() {
	evs := q.evs
	n := len(evs)
	i := 0
	for {
		min := i
		base := 4*i + 1
		if base >= n {
			return
		}
		end := base + 4
		if end > n {
			end = n
		}
		for c := base; c < end; c++ {
			if evs[c].before(&evs[min]) {
				min = c
			}
		}
		if min == i {
			return
		}
		evs[i], evs[min] = evs[min], evs[i]
		i = min
	}
}

// FastLane is an auxiliary event source merged into the scheduler's
// dispatch loop. A lane owns events the simulator never sees as heap
// entries — typed, pre-resolved work the lane dispatches itself — but
// every lane event still carries a (time, seq) pair drawn from the
// simulator's sequence space (TakeSeq), so the merged pop order across
// the main heap and the lane is the same total order a single heap
// would produce. That property is what lets every TCP segment bypass
// the global heap and still reproduce the packet path's frozen
// transcripts; see docs/PERF.md. tcpsim attaches the one lane a
// simulator has.
type FastLane interface {
	// Head returns the next lane event's (time, seq); ok is false when
	// the lane is empty.
	Head() (at Time, seq uint64, ok bool)
	// RunHead pops and executes the head event. The scheduler has
	// already advanced the clock to the event's time.
	RunHead()
	// Len returns the number of pending lane events (for Pending).
	Len() int
	// Carried returns the lane's cumulative traffic, which the runtime
	// hub publishes at the simulator's flush.
	Carried() LaneCounts
}

// LaneCounts is what a fast lane has carried: epochs connections
// opened on it, and the segments it queued and their wire bytes.
type LaneCounts struct {
	Epochs, Segments, Bytes uint64
}

// Sim is a discrete-event simulator. Create one with New; it is not safe
// for concurrent use — the simulation is single-threaded by design, which
// is what makes it deterministic.
type Sim struct {
	now    Time
	events eventQueue
	seq    uint64
	rng    *rand.Rand
	fast   FastLane

	// Processed counts events executed, a cheap progress/debug metric.
	Processed uint64

	// maxDepth is the deepest the event queue has been — an int compare
	// per push instead of a float64 gauge update (Metrics.Flush and the
	// runtime hub publish it).
	maxDepth int

	// metrics, when wired via SetMetrics, mirrors scheduler activity
	// into the observability registry. Nil costs one compare per event.
	metrics *Metrics

	// rt, when wired via SetRuntime, publishes engine liveness (events
	// executed, virtual time advanced, heap-depth watermark) and the
	// fast lane's traffic to the wall-clock telemetry hub. Publication
	// is batched: Run flushes deltas every rtFlushInterval events and at
	// drain, so Step itself stays untouched and the zero-allocation hot
	// path holds.
	rt          *rt.Engine
	rtEvents    uint64     // Processed at last flush
	rtLastNow   Time       // now at last flush
	rtLane      LaneCounts // lane totals at last flush
	rtStepCount uint64     // events since Run started, for the flush cadence
}

// New returns a simulator whose randomness derives from seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulator's deterministic PRNG.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// AttachFastLane registers the auxiliary event lane. One lane per
// simulator; attaching replaces any previous lane, so callers check
// FastLane first and share the existing one.
func (s *Sim) AttachFastLane(l FastLane) { s.fast = l }

// FastLane returns the attached lane (nil when none).
func (s *Sim) FastLane() FastLane { return s.fast }

// TakeSeq consumes and returns the next sequence number without
// scheduling anything. Lane events and lazily-scheduled timers draw
// their tie-break seq here at the instant the eager implementation
// would have called Schedule, which keeps same-instant ordering against
// ordinary heap events bit-identical.
func (s *Sim) TakeSeq() uint64 {
	s.seq++
	return s.seq
}

// Schedule runs fn after the given delay of virtual time. Negative delays
// are treated as zero (run "now", after currently queued same-time events).
func (s *Sim) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at the given absolute virtual time. Times in the past
// are clamped to now.
func (s *Sim) ScheduleAt(at Time, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.enqueue(event{at: at, fn: fn})
}

// schedulePacket enqueues a packet-delivery event carrying pkt by value:
// Network.Send's path to the heap with no closure and no allocation.
func (s *Sim) schedulePacket(at Time, n *Network, pkt Packet) {
	if at < s.now {
		at = s.now
	}
	s.enqueue(event{at: at, net: n, pkt: pkt})
}

// enqueue stamps the next sequence number and pushes e.
func (s *Sim) enqueue(e event) {
	e.seq = s.TakeSeq()
	s.push(e)
}

// ScheduleAtSeq runs fn at the given absolute time under a sequence
// number previously drawn with TakeSeq (and not yet pushed). The lazy
// RTO timers use this to materialize a deadline event in exactly the
// (at, seq) heap slot the eager implementation's Schedule call claimed
// at arm time.
func (s *Sim) ScheduleAtSeq(at Time, seq uint64, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.push(event{at: at, seq: seq, fn: fn})
}

// push inserts an already-stamped event and maintains depth tracking.
func (s *Sim) push(e event) {
	s.events.push(e)
	if d := s.events.len(); d > s.maxDepth {
		s.maxDepth = d
	}
	if m := s.metrics; m != nil {
		m.Scheduled.Inc()
	}
}

// fastHeadBefore reports whether the fast lane's head event orders
// ahead of the main heap's head (or the heap is empty). Only valid when
// the lane reported ok.
func (s *Sim) fastHeadBefore(at Time, seq uint64) bool {
	if s.events.len() == 0 {
		return true
	}
	h := s.events.head()
	if at != h.at {
		return at < h.at
	}
	return seq < h.seq
}

// Step executes the next pending event — from the main heap or the fast
// lane, whichever is earlier in (time, seq) order — advancing the clock
// to its time. It reports whether an event was executed.
func (s *Sim) Step() bool {
	if l := s.fast; l != nil {
		if at, seq, ok := l.Head(); ok && s.fastHeadBefore(at, seq) {
			s.now = at
			s.Processed++
			if m := s.metrics; m != nil {
				m.Executed.Inc()
			}
			l.RunHead()
			return true
		}
	}
	if s.events.len() == 0 {
		return false
	}
	e := s.events.pop()
	s.now = e.at
	s.Processed++
	if m := s.metrics; m != nil {
		m.Executed.Inc()
	}
	if e.net != nil {
		e.net.DeliverNow(e.pkt)
	} else {
		e.fn()
	}
	return true
}

// rtFlushInterval is how often (in executed events, power of two) Run
// flushes liveness deltas to the runtime telemetry hub. Batching keeps
// the publication off the per-event path: the hub sees the engine at
// a ~millisecond granularity, the scheduler pays one masked compare
// per event only while a hub is wired.
const rtFlushInterval = 4096

// Run executes events until the queue drains.
func (s *Sim) Run() {
	if s.rt == nil {
		for s.Step() {
		}
		return
	}
	for s.Step() {
		if s.rtStepCount++; s.rtStepCount&(rtFlushInterval-1) == 0 {
			s.flushRuntime()
		}
	}
	s.flushRuntime()
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
func (s *Sim) RunUntil(t Time) {
	for s.nextAt(t) {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
	if s.rt != nil {
		s.flushRuntime()
	}
}

// SetRuntime wires (or, with nil, unwires) the wall-clock telemetry
// hub. Unlike SetMetrics this is aggregate and cross-world: many
// concurrent simulators share one hub, publishing batched deltas with
// atomic adds. The hub never feeds back into the simulation or the
// deterministic exports. What the fast lane carried before the call is
// not published.
func (s *Sim) SetRuntime(e *rt.Engine) {
	s.rt = e
	s.rtEvents = s.Processed
	s.rtLastNow = s.now
	s.rtLane = LaneCounts{}
	if s.fast != nil {
		s.rtLane = s.fast.Carried()
	}
}

// flushRuntime publishes the since-last-flush deltas to the hub.
func (s *Sim) flushRuntime() {
	e := s.rt
	e.AddEvents(s.Processed - s.rtEvents)
	s.rtEvents = s.Processed
	e.AddSimTime(int64(s.now - s.rtLastNow))
	s.rtLastNow = s.now
	e.NoteHeapDepth(int64(s.maxDepth))
	if s.fast != nil {
		c := s.fast.Carried()
		e.AddFastpath(c.Epochs-s.rtLane.Epochs, c.Segments-s.rtLane.Segments, c.Bytes-s.rtLane.Bytes)
		s.rtLane = c
	}
}

// nextAt reports whether any pending event (heap or fast lane) is due
// at or before t.
func (s *Sim) nextAt(t Time) bool {
	if s.events.len() > 0 && s.events.head().at <= t {
		return true
	}
	if l := s.fast; l != nil {
		if at, _, ok := l.Head(); ok && at <= t {
			return true
		}
	}
	return false
}

// RunFor executes events for d of virtual time from now.
func (s *Sim) RunFor(d Time) { s.RunUntil(s.now + d) }

// Pending returns the number of queued events, fast-lane events included.
func (s *Sim) Pending() int {
	n := s.events.len()
	if l := s.fast; l != nil {
		n += l.Len()
	}
	return n
}

// String summarizes simulator state for debugging.
func (s *Sim) String() string {
	return fmt.Sprintf("sim(t=%v pending=%d processed=%d)", s.now, s.Pending(), s.Processed)
}
