package simnet

import (
	"fmt"
	"time"
)

// HostID names a host on the simulated network, e.g. "client-17",
// "fe-chicago", "be-lenoir".
type HostID string

// Packet is the unit of transfer on the network. Payload is opaque to
// simnet; Size (bytes, including headers) drives serialization delay.
type Packet struct {
	From    HostID
	To      HostID
	Size    int
	Payload interface{}
}

// Handler receives packets delivered to a host.
type Handler interface {
	Deliver(pkt Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(pkt Packet)

// Deliver calls f(pkt).
func (f HandlerFunc) Deliver(pkt Packet) { f(pkt) }

// PathParams characterizes one direction of a network path.
type PathParams struct {
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniform [0, Jitter) random extra delay per packet.
	// FIFO ordering is preserved regardless (a later packet never
	// arrives before an earlier one on the same path).
	Jitter time.Duration
	// LossRate drops each packet independently with this probability.
	LossRate float64
	// Gilbert, when non-nil, replaces the Bernoulli LossRate with a
	// two-state burst-loss process (see GilbertParams).
	Gilbert *GilbertParams
	// Bandwidth in bytes/second limits throughput via serialization
	// delay and queueing. Zero or negative means unlimited.
	Bandwidth float64
}

// path is the runtime state of one direction of a link.
type path struct {
	params      PathParams
	busyUntil   Time // link serialization occupancy
	lastArrival Time // FIFO clamp
	gilbert     *gilbertState
}

func newPath(params PathParams) *path {
	p := &path{params: params}
	if params.Gilbert != nil {
		p.gilbert = &gilbertState{params: *params.Gilbert}
	}
	return p
}

type pathKey struct{ from, to HostID }

// Network connects hosts through configured paths. A pair no SetPath
// configured takes its parameters from either host's path resolver, or
// else a zero PathParams (no delay, unlimited bandwidth, no loss) so
// tests can wire things up tersely.
type Network struct {
	sim       *Sim
	hosts     map[HostID]Handler
	paths     map[pathKey]*path
	resolvers map[HostID]func(peer HostID) (PathParams, bool)

	// version is bumped on every topology mutation (SetPath, Attach,
	// SetPathResolver) and invalidates outstanding PathHandles; holders
	// re-resolve through FastPath on mismatch.
	version uint64
}

// NewNetwork creates an empty network on the given simulator.
func NewNetwork(sim *Sim) *Network {
	return &Network{
		sim:       sim,
		hosts:     make(map[HostID]Handler),
		paths:     make(map[pathKey]*path),
		resolvers: make(map[HostID]func(HostID) (PathParams, bool)),
	}
}

// Sim returns the simulator this network schedules on.
func (n *Network) Sim() *Sim { return n.sim }

// Attach registers (or replaces) the handler for a host.
func (n *Network) Attach(id HostID, h Handler) {
	n.version++
	n.hosts[id] = h
}

// Handler returns the attached handler for a host (nil when none is).
func (n *Network) Handler(id HostID) Handler { return n.hosts[id] }

// SetPath configures the directed path from → to. Call twice (swapped)
// for a bidirectional link, or use SetLink.
func (n *Network) SetPath(from, to HostID, p PathParams) {
	n.version++
	n.paths[pathKey{from, to}] = newPath(p)
}

// SetLink configures both directions between a and b with the same
// parameters.
func (n *Network) SetLink(a, b HostID, p PathParams) {
	n.SetPath(a, b, p)
	n.SetPath(b, a, p)
}

// SetPathResolver resolves host's paths to and from peers no SetPath
// configured: resolve(peer) returns the parameters of both directions
// between host and peer, or false when host has no path to peer. A
// resolved path is stored when it carries its first packet, so the
// answer for a peer must not change after that.
func (n *Network) SetPathResolver(host HostID, resolve func(peer HostID) (PathParams, bool)) {
	n.version++
	n.resolvers[host] = resolve
}

// Path returns the parameters of the directed path from → to: the
// configured ones, else a resolver's, else zero.
func (n *Network) Path(from, to HostID) PathParams {
	if p, ok := n.paths[pathKey{from, to}]; ok {
		return p.params
	}
	if r, ok := n.resolvers[to]; ok {
		if p, ok := r(from); ok {
			return p
		}
	}
	if r, ok := n.resolvers[from]; ok {
		if p, ok := r(to); ok {
			return p
		}
	}
	return PathParams{}
}

// RTT returns the base round-trip propagation delay between a and b
// (sum of the two directed path delays, excluding jitter/queueing).
func (n *Network) RTT(a, b HostID) time.Duration {
	return n.Path(a, b).Delay + n.Path(b, a).Delay
}

func (n *Network) pathState(from, to HostID) *path {
	k := pathKey{from, to}
	p, ok := n.paths[k]
	if !ok {
		p = newPath(n.Path(from, to))
		n.paths[k] = p
	}
	return p
}

// Send transmits pkt. Delivery is scheduled on the simulator according to
// the path's delay, jitter, bandwidth occupancy and loss. Send returns
// immediately; it never blocks.
func (n *Network) Send(pkt Packet) {
	p := n.pathState(pkt.From, pkt.To)
	arrival, dropped := n.admit(p, pkt.Size)
	if dropped {
		return
	}
	// The packet rides in the event by value — no closure, no per-send
	// allocation (the delivery benchmark gates this at 0 allocs/op).
	n.sim.schedulePacket(arrival, n, pkt)
}

// admit runs the path's per-packet state machine — loss draw,
// serialization/queueing, propagation, jitter draw, FIFO clamp — and
// returns the packet's arrival time (or dropped). This is the single
// source of truth for transmission timing: Send and PathHandle.Transmit
// both go through it, so a segment bypassing the event heap gets the
// same arrival, the same counter updates, and — crucially — the same
// PRNG draws in the same order as a heap-scheduled one.
func (n *Network) admit(p *path, size int) (arrival Time, dropped bool) {
	if m := n.sim.metrics; m != nil {
		m.PacketsSent.Inc()
		m.BytesSent.Add(float64(size))
	}

	if p.gilbert != nil {
		if p.gilbert.drop(n.sim.Rand().Float64(), n.sim.Rand().Float64()) {
			if m := n.sim.metrics; m != nil {
				m.PacketsDropped.Inc()
			}
			return 0, true
		}
	} else if p.params.LossRate > 0 && n.sim.Rand().Float64() < p.params.LossRate {
		if m := n.sim.metrics; m != nil {
			m.PacketsDropped.Inc()
		}
		return 0, true
	}

	// Serialization / queueing: the link transmits packets one at a
	// time at Bandwidth bytes/sec.
	start := n.sim.Now()
	if start < p.busyUntil {
		start = p.busyUntil
	}
	var ser time.Duration
	if p.params.Bandwidth > 0 && size > 0 {
		ser = time.Duration(float64(size) / p.params.Bandwidth * float64(time.Second))
	}
	p.busyUntil = start + ser

	arrival = p.busyUntil + p.params.Delay
	if p.params.Jitter > 0 {
		arrival += time.Duration(n.sim.Rand().Int63n(int64(p.params.Jitter)))
	}
	// FIFO: never reorder within a path.
	if arrival < p.lastArrival {
		arrival = p.lastArrival
	}
	p.lastArrival = arrival
	return arrival, false
}

// PathHandle is a revocable capability to transmit on one directed path
// without going through the event heap. The zero value is invalid.
// Holders must check Valid before each use: any topology mutation
// revokes every outstanding handle, after which the holder re-resolves
// via FastPath.
//
// A handle's path may carry a loss process. Loss draws consume the
// simulator PRNG in segment send order — exactly when Network.Send
// would draw them — so Transmit resolves each segment's fate (arrival
// time or drop) at send time, with no packet delivered; a dropped
// segment is simply never queued, as Network.Send would never have
// scheduled it.
type PathHandle struct {
	n       *Network
	p       *path
	version uint64
}

// Valid reports whether the handle still reflects the network topology.
func (h PathHandle) Valid() bool { return h.p != nil && h.version == h.n.version }

// Transmit admits one packet of the given size on the handle's path and
// returns its arrival time, or dropped=true when the path's loss
// process consumed it. Timing, counters and PRNG draws are exactly
// those of Network.Send for the same packet; only the heap scheduling
// is left to the caller's lane. On a drop the caller must schedule
// nothing — Network.Send would not have either.
func (h PathHandle) Transmit(size int) (arrival Time, dropped bool) {
	return h.n.admit(h.p, size)
}

// FastPath resolves a handle for the directed path from → to. A loss
// process — a total blackout included — does not disqualify the path:
// drops are resolved at send time by Transmit.
func (n *Network) FastPath(from, to HostID) PathHandle {
	return PathHandle{n: n, p: n.pathState(from, to), version: n.version}
}

// DeliverNow hands pkt to the handler attached to pkt.To, dropping it
// when none is: the delivery half of Send's packet events, run when
// the event pops. A fast lane delivering a segment it queued itself
// calls it the same way, so the handler is looked up at arrival on
// either path and a host re-attached while the segment was in flight
// receives it alike.
func (n *Network) DeliverNow(pkt Packet) {
	if h, ok := n.hosts[pkt.To]; ok {
		h.Deliver(pkt)
	}
}

// String summarizes the network for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("network(hosts=%d paths=%d)", len(n.hosts), len(n.paths))
}
