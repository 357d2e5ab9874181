package tcpsim

import (
	"fesplit/internal/simnet"
)

// The fast lane is the TCP half of the flow-level fast-forward engine
// (the network half is simnet.PathHandle). When a connection's peer's
// stack state is directly resolvable, each segment's fate and arrival
// time are resolved at send time — by the same path state machine the
// packet path runs, loss draws included — and the delivery is queued
// here instead of on the global event heap. The simulator merges the
// lane into its dispatch loop in (time, seq) order, so deliveries
// interleave with ordinary events exactly as heap-scheduled packets
// would. The lane is a per-connection delivery queue, not a model of
// the transfer: a dropped segment is simply not queued, and the
// dupACKs, retransmissions and RTO-driven resends that repair it are
// lane traffic like any other. See docs/PERF.md for the exactness
// argument.
//
// Structure: one FIFO ring per sending connection, plus a small min-
// heap of the non-empty rings keyed by their head event. A path's FIFO
// clamp makes arrival times monotone per directed path — and sequence
// numbers only grow — so (at, seq) is monotone within a ring and a
// plain append replaces the O(log n) sift of a unified heap. Only the
// ring heap sifts, and it moves single pointers, not 100-byte events
// full of GC-visible slices (the write barriers on those swaps
// dominated the unified-heap profile). Slot arrays belong to the lane,
// not to connections: a ring holds one only while it is in the heap.

// fastEvent is one pending segment delivery. The destination state
// lives on the ring (constant per connection), so the event is just
// the heap-slot key and the segment.
type fastEvent struct {
	at  simnet.Time
	seq uint64
	seg Segment
}

// fastRing is one connection-direction's pending deliveries: a FIFO
// ring buffer plus the pre-resolved destination. A ring outlives cache
// invalidation gracefully — a sender that re-resolves a non-empty ring
// to a new peer object or observes time regress (SetPath resets a
// path's FIFO clamp) starts a fresh ring and lets the old one drain.
type fastRing struct {
	dst    *Conn
	dstEp  *Endpoint
	dstGen uint64 // dstEp.demuxGen at the last successful resolution
	from   simnet.HostID

	evs  []fastEvent // ring storage, power-of-two length; nil when n == 0
	head int
	n    int

	// Cached key of evs[head], so ring-heap compares don't chase into
	// the ring storage.
	headAt  simnet.Time
	headSeq uint64
	tailAt  simnet.Time // last pushed time, for monotonicity checks
}

// push appends one event; the caller has verified monotonicity.
func (r *fastRing) push(ev fastEvent) {
	if r.n == len(r.evs) {
		r.grow()
	}
	r.evs[(r.head+r.n)&(len(r.evs)-1)] = ev
	r.n++
	r.tailAt = ev.at
}

func (r *fastRing) grow() {
	old := r.evs
	size := 2 * len(old)
	if size == 0 {
		size = 16
	}
	evs := make([]fastEvent, size)
	for i := 0; i < r.n; i++ {
		evs[i] = old[(r.head+i)&(len(old)-1)]
	}
	r.evs = evs
	r.head = 0
}

// pop removes and returns the head event. Only valid when n > 0.
func (r *fastRing) pop() fastEvent {
	ev := r.evs[r.head]
	r.evs[r.head] = fastEvent{} // release the payload for the GC
	r.head = (r.head + 1) & (len(r.evs) - 1)
	r.n--
	if r.n > 0 {
		h := &r.evs[r.head]
		r.headAt, r.headSeq = h.at, h.seq
	}
	return ev
}

// fastLane implements simnet.FastLane: a 4-ary min-heap of non-empty
// rings ordered by their head (at, seq).
type fastLane struct {
	sim   *simnet.Sim
	rings []*fastRing
	total int
	free  [][]fastEvent // drained rings' zeroed slot arrays, reused LIFO
}

// laneFor returns the simulator's fast lane, creating and attaching one
// on first use. If a foreign lane is already attached, fast-forwarding
// is unavailable on this simulator and callers stay on the packet path.
func laneFor(sim *simnet.Sim) *fastLane {
	switch l := sim.FastLane().(type) {
	case *fastLane:
		return l
	case nil:
		nl := &fastLane{sim: sim}
		sim.AttachFastLane(nl)
		return nl
	default:
		return nil
	}
}

// enqueue queues one delivery on r, entering r into the ring heap with
// a freed slot array if it was empty. An already-queued ring's head is
// unchanged by an append, so the common case is heap-free: O(1).
func (l *fastLane) enqueue(r *fastRing, ev fastEvent) {
	if r.n == 0 {
		r.headAt, r.headSeq = ev.at, ev.seq
		if n := len(l.free); n > 0 {
			r.evs, l.free[n-1], l.free = l.free[n-1], nil, l.free[:n-1]
		}
		l.rings = append(l.rings, r)
		l.siftUp(len(l.rings) - 1)
	}
	r.push(ev)
	l.total++
}

func (l *fastLane) before(a, b *fastRing) bool {
	if a.headAt != b.headAt {
		return a.headAt < b.headAt
	}
	return a.headSeq < b.headSeq
}

func (l *fastLane) siftUp(i int) {
	rings := l.rings
	for i > 0 {
		p := (i - 1) / 4
		if !l.before(rings[i], rings[p]) {
			break
		}
		rings[i], rings[p] = rings[p], rings[i]
		i = p
	}
}

func (l *fastLane) siftDown() {
	rings := l.rings
	n := len(rings)
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
			if l.before(rings[c], rings[min]) {
				min = c
			}
		}
		if min == i {
			return
		}
		rings[i], rings[min] = rings[min], rings[i]
		i = min
	}
}

// Head implements simnet.FastLane.
func (l *fastLane) Head() (at simnet.Time, seq uint64, ok bool) {
	if len(l.rings) == 0 {
		return 0, 0, false
	}
	r := l.rings[0]
	return r.headAt, r.headSeq, true
}

// Len implements simnet.FastLane.
func (l *fastLane) Len() int { return l.total }

// RunHead implements simnet.FastLane: deliver the earliest pending
// segment. The ring heap is restored before dispatch because the
// receiver's handler typically transmits in turn (ACKs, responses) and
// re-enters the lane synchronously.
//
// When the destination endpoint's demux table has not changed since the
// sender resolved the connection, delivery goes straight to Conn.handle
// — the tap and metrics updates are exactly those Endpoint.Deliver
// performs. Any table change (a connection closed since the segment
// departed) routes through the full Deliver demux, which reproduces the
// packet path's behaviour bit for bit, including dropping segments
// addressed to a connection that no longer exists.
func (l *fastLane) RunHead() {
	r, ev := l.next()
	ep := r.dstEp
	if r.dst == nil || ep.demuxGen != r.dstGen {
		ep.Deliver(simnet.Packet{
			From:    r.from,
			To:      ep.host,
			Size:    ep.cfg.HeaderSize + ev.seg.PayloadLen(),
			Payload: ev.seg,
		})
		return
	}
	if ep.Tap != nil {
		ep.Tap(TapEvent{Time: l.sim.Now(), Dir: DirRecv, Remote: string(r.from), Segment: ev.seg})
	}
	if m := ep.Metrics; m != nil {
		m.SegsRecv.Inc()
	}
	r.dst.handle(ev.seg)
}

// next removes the earliest pending delivery and restores the ring
// heap. A ring its pop drained leaves the heap and frees its slot array.
func (l *fastLane) next() (*fastRing, fastEvent) {
	r := l.rings[0]
	ev := r.pop()
	l.total--
	if r.n == 0 {
		last := len(l.rings) - 1
		l.rings[0] = l.rings[last]
		l.rings[last] = nil
		l.rings = l.rings[:last]
		l.free = append(l.free, r.evs)
		r.evs, r.head = nil, 0
	}
	if len(l.rings) > 1 {
		l.siftDown()
	}
	return r, ev
}
