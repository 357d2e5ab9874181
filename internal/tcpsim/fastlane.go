package tcpsim

import (
	"fesplit/internal/simnet"
)

// The fast lane is the TCP half of the flow-level fast-forward engine
// (the network half is simnet.PathHandle). Every segment a connection
// sends rides it: its fate and arrival time are resolved at send time —
// by the same path state machine Network.Send runs, loss draws
// included — and the delivery is queued here instead of on the global
// event heap. The simulator
// merges the lane into its dispatch loop in (time, seq) order, so
// deliveries interleave with ordinary events exactly as heap-scheduled
// packets would. The lane is a per-connection delivery queue, not a
// model of the transfer: a dropped segment is simply not queued, and
// the dupACKs, retransmissions and RTO-driven resends that repair it
// are lane traffic like any other. A ring whose peer connection is
// resolved delivers straight to it; any other ring delivers through
// the network's host table, as a heap packet event does. See
// docs/PERF.md for the exactness argument.
//
// Structure: one FIFO ring per sending connection, plus a small min-
// heap of the non-empty rings keyed by their head event. A path's FIFO
// clamp makes arrival times monotone per directed path — and sequence
// numbers only grow — so (at, seq) is monotone within a ring and a
// plain append replaces the O(log n) sift of a unified heap. Only the
// ring heap sifts, and it moves single pointers. A slot is a 48-byte,
// pointer-free event beside its payload slice, and a SACK column at the
// same index holds the few ACKs' blocks, so an event copy is a few
// register moves and one word per slot is GC-visible. Slot arrays
// belong to the lane, not to connections: a ring holds them only while
// it is in the heap.

// fastEvent is one pending segment delivery. The destination state
// lives on the ring (constant per connection), so the event is just
// the heap-slot key and the segment header.
type fastEvent struct {
	at  simnet.Time
	seq uint64
	seg Segment
}

// slot is one ring entry: a delivery and its payload bytes.
type slot struct {
	ev   fastEvent
	data []byte
}

// slots is a ring's storage: the entries and, index for index, their
// SACK blocks — a column the first push that carries blocks allocates.
type slots struct {
	evs  []slot // power-of-two length; nil when the ring is empty
	sack [][3]SACKBlock
}

// fastRing is one connection-direction's pending deliveries: a FIFO
// ring buffer plus the pre-resolved destination. A ring outlives cache
// invalidation gracefully — a sender that re-resolves a non-empty ring
// to a new peer object or observes time regress (SetPath resets a
// path's FIFO clamp) starts a fresh ring and lets the old one drain.
type fastRing struct {
	dst    *Conn // nil: deliver through the host table (full demux)
	dstEp  *Endpoint
	dstGen uint64    // dstEp.demuxGen at the last successful resolution
	src    *Endpoint // the sender: a delivered packet's From and Size
	to     simnet.HostID

	slots
	head int
	n    int

	// Cached key of evs[head], so ring-heap compares don't chase into
	// the ring storage.
	headAt  simnet.Time
	headSeq uint64
	tailAt  simnet.Time // last pushed time, for monotonicity checks
}

// push appends one event with its bytes and SACK blocks; the caller has
// verified monotonicity.
func (r *fastRing) push(ev fastEvent, data []byte, sack []SACKBlock) {
	if r.n == len(r.evs) {
		r.grow()
	}
	i := (r.head + r.n) & (len(r.evs) - 1)
	r.evs[i].ev = ev
	r.evs[i].data = data
	if len(sack) > 0 {
		if r.sack == nil {
			r.sack = make([][3]SACKBlock, len(r.evs))
		}
		copy(r.sack[i][:], sack)
	}
	r.n++
	r.tailAt = ev.at
}

func (r *fastRing) grow() {
	old := r.slots
	size := 2 * len(old.evs)
	if size == 0 {
		size = 16
	}
	r.evs = make([]slot, size)
	r.sack = nil
	if old.sack != nil {
		r.sack = make([][3]SACKBlock, size)
	}
	mask := len(old.evs) - 1
	for i := 0; i < r.n; i++ {
		j := (r.head + i) & mask
		r.evs[i] = old.evs[j]
		if old.sack != nil {
			r.sack[i] = old.sack[j]
		}
	}
	r.head = 0
}

// pop removes the head event and returns its slot index, valid until
// the next push. Only valid when n > 0.
func (r *fastRing) pop() int {
	i := r.head
	r.head = (i + 1) & (len(r.evs) - 1)
	r.n--
	if r.n > 0 {
		h := &r.evs[r.head].ev
		r.headAt, r.headSeq = h.at, h.seq
	}
	return i
}

// fastLane implements simnet.FastLane: a 4-ary min-heap of non-empty
// rings ordered by their head (at, seq).
type fastLane struct {
	sim   *simnet.Sim
	rings []*fastRing
	total int
	free  []slots // drained rings' storage, reused LIFO
	// sack holds the SACK blocks of the delivery in flight: its slot
	// may be reused by a push from the receiver's handler.
	sack [3]SACKBlock
	// carried counts the epochs connections opened on the lane and the
	// segments it queued; drops, the segments the path's loss process
	// consumed at send time. The simulator publishes carried to the
	// runtime hub.
	carried simnet.LaneCounts
	drops   uint64
}

// laneFor returns the simulator's fast lane, creating and attaching one
// on first use. tcpsim is the only lane user; a simulator carrying
// another lane panics here.
func laneFor(sim *simnet.Sim) *fastLane {
	if l := sim.FastLane(); l != nil {
		return l.(*fastLane)
	}
	l := &fastLane{sim: sim}
	sim.AttachFastLane(l)
	return l
}

// enqueue queues one delivery on r, entering r into the ring heap with
// a freed slot array if it was empty. An already-queued ring's head is
// unchanged by an append, so the common case is heap-free: O(1).
func (l *fastLane) enqueue(r *fastRing, ev fastEvent, data []byte, sack []SACKBlock) {
	if r.n == 0 {
		r.headAt, r.headSeq = ev.at, ev.seq
		if n := len(l.free); n > 0 {
			r.slots, l.free[n-1], l.free = l.free[n-1], slots{}, l.free[:n-1]
		}
		l.rings = append(l.rings, r)
		l.siftUp(len(l.rings) - 1)
	}
	r.push(ev, data, sack)
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

// Carried implements simnet.FastLane.
func (l *fastLane) Carried() simnet.LaneCounts { return l.carried }

// RunHead implements simnet.FastLane: deliver the earliest pending
// segment. The ring heap is restored before dispatch because the
// receiver's handler typically transmits in turn (ACKs, responses) and
// re-enters the lane synchronously.
//
// When the ring's destination connection is resolved and its endpoint's
// demux table has not changed since, delivery goes straight to
// Conn.handle — the tap and metrics updates are exactly those
// Endpoint.Deliver performs. Otherwise (no resolved connection, a
// connection closed since the segment departed) the segment takes the
// host-table route a heap packet event pops into: to the endpoint's
// full demux when the peer host's handler is still that *Endpoint, and
// as a boxed Packet through Network.DeliverNow only when it is some
// other handler (a forwarder, a dropper) — which reproduces the packet
// path's behaviour bit for bit, including dropping segments addressed
// to a connection or host that no longer exists.
func (l *fastLane) RunHead() {
	r, ev, data, sack := l.next()
	ep := r.dstEp
	switch {
	case r.dst != nil && ep.demuxGen == r.dstGen:
		if ep.Tap != nil {
			ep.Tap(TapEvent{Time: l.sim.Now(), Dir: DirRecv, Remote: string(r.src.host), Segment: ev.seg}, data, sack)
		}
		if m := ep.Metrics; m != nil {
			m.SegsRecv.Inc()
		}
		r.dst.handle(ev.seg, data, sack)
	case ep != nil && r.src.net.Handler(r.to) == simnet.Handler(ep):
		ep.deliver(r.src.host, ev.seg, data, sack)
	default:
		src := r.src
		src.net.DeliverNow(simnet.Packet{
			From:    src.host,
			To:      r.to,
			Size:    src.cfg.HeaderSize + int(ev.seg.Len),
			Payload: box(ev.seg, data, sack),
		})
	}
}

// next removes the earliest pending delivery — its event, bytes and
// SACK blocks (copied to l.sack) — and restores the ring heap. A ring
// its pop drained leaves the heap and frees its storage.
func (l *fastLane) next() (*fastRing, fastEvent, []byte, []SACKBlock) {
	r := l.rings[0]
	i := r.pop()
	ev, data := r.evs[i].ev, r.evs[i].data
	r.evs[i].data = nil // release the payload for the GC
	var sack []SACKBlock
	if ev.seg.NSACK > 0 {
		l.sack = r.sack[i]
		sack = l.sack[:ev.seg.NSACK]
	}
	l.total--
	if r.n == 0 {
		last := len(l.rings) - 1
		l.rings[0] = l.rings[last]
		l.rings[last] = nil
		l.rings = l.rings[:last]
		l.free = append(l.free, r.slots)
		r.slots, r.head = slots{}, 0
	}
	if len(l.rings) > 1 {
		l.siftDown()
	}
	return r, ev, data, sack
}
