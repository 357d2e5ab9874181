package simnet

import (
	"fmt"
	"time"

	rt "fesplit/internal/obs/runtime"
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

// Symmetric builds a PathParams pair (forward, reverse) with identical
// parameters in both directions.
func Symmetric(p PathParams) (fwd, rev PathParams) { return p, p }

// path is the runtime state of one direction of a link.
type path struct {
	params      PathParams
	busyUntil   Time // link serialization occupancy
	lastArrival Time // FIFO clamp
	gilbert     *gilbertState

	// counters
	sent, dropped uint64
	bytes         uint64
}

func newPath(params PathParams) *path {
	p := &path{params: params}
	if params.Gilbert != nil {
		p.gilbert = &gilbertState{params: *params.Gilbert}
	}
	return p
}

type pathKey struct{ from, to HostID }

// Network connects hosts through configured paths. Unconfigured
// host pairs share a default path (zero delay, unlimited bandwidth) so
// tests can wire things up tersely.
type Network struct {
	sim      *Sim
	hosts    map[HostID]Handler
	paths    map[pathKey]*path
	defaults PathParams

	// version is bumped on every topology mutation (SetPath, Attach,
	// Detach, …) and invalidates outstanding PathHandles; holders
	// re-resolve through FastPath on mismatch.
	version uint64
	// fastOff disables FastPath entirely (differential testing).
	fastOff bool

	// Fast-path accounting: segments/bytes that bypassed the global
	// event heap, epochs entered and fallbacks taken by connections.
	// Exported as the fastpath_* gauges by ExportMetrics. Fallbacks are
	// additionally broken down by reason (see FallbackReason); lane
	// segments consumed by the loss process at send time are counted as
	// loss drops.
	fastSegs      uint64
	fastBytes     uint64
	fastEpochs    uint64
	fastFallbacks uint64
	fastLossDrops uint64
	fastByReason  [rt.NumReasons]uint64
	rtEngine      *rt.Engine
	rtPub         FastPathStats // last values published to rtEngine
	rtPubByReason [rt.NumReasons]uint64
}

// NewNetwork creates an empty network on the given simulator.
func NewNetwork(sim *Sim) *Network {
	return &Network{
		sim:   sim,
		hosts: make(map[HostID]Handler),
		paths: make(map[pathKey]*path),
	}
}

// Sim returns the simulator this network schedules on.
func (n *Network) Sim() *Sim { return n.sim }

// Attach registers (or replaces) the handler for a host.
func (n *Network) Attach(id HostID, h Handler) {
	n.version++
	n.hosts[id] = h
}

// Detach removes a host; packets in flight to it are dropped on arrival.
func (n *Network) Detach(id HostID) {
	n.version++
	delete(n.hosts, id)
}

// Handler returns the attached handler for a host (nil when detached).
func (n *Network) Handler(id HostID) Handler { return n.hosts[id] }

// SetDefaultPath sets parameters used for host pairs without an explicit
// SetPath call.
func (n *Network) SetDefaultPath(p PathParams) {
	n.version++
	n.defaults = p
}

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

// DropHostPaths removes every configured path touching host, in both
// directions, and returns how many were dropped. It is the reclamation
// half of ephemeral-host lifecycles: a vantage slot that leaves the
// fleet for good would otherwise pin one path per peer it ever talked
// to (paths are lazily materialized per directed pair and never freed).
// Dropping bumps the topology version, so outstanding PathHandles are
// revoked exactly as SetPath would revoke them; a later send between
// the same pair re-materializes a fresh path from the configured
// defaults. Do not call this for hosts that will keep talking — the
// fresh path forgets FIFO-clamp and loss-chain state, which is only
// sound once the host is gone.
func (n *Network) DropHostPaths(host HostID) int {
	dropped := 0
	for k := range n.paths {
		if k.from == host || k.to == host {
			delete(n.paths, k)
			dropped++
		}
	}
	if dropped > 0 {
		n.version++
	}
	return dropped
}

// PathCount returns the number of materialized directed paths (testing
// and telemetry aid: the per-host state a churning fleet must bound).
func (n *Network) PathCount() int { return len(n.paths) }

// Path returns the parameters of the directed path from → to
// (the default parameters if unconfigured).
func (n *Network) Path(from, to HostID) PathParams {
	if p, ok := n.paths[pathKey{from, to}]; ok {
		return p.params
	}
	return n.defaults
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
		p = newPath(n.defaults)
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
	p.sent++
	p.bytes += uint64(size)
	if m := n.sim.metrics; m != nil {
		m.PacketsSent.Inc()
		m.BytesSent.Add(float64(size))
	}

	if p.gilbert != nil {
		if p.gilbert.drop(n.sim.Rand().Float64(), n.sim.Rand().Float64()) {
			p.dropped++
			if m := n.sim.metrics; m != nil {
				m.PacketsDropped.Inc()
			}
			return 0, true
		}
	} else if p.params.LossRate > 0 && n.sim.Rand().Float64() < p.params.LossRate {
		p.dropped++
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
// via FastPath (and may find the path no longer qualifies).
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

// Version returns the topology version; it changes whenever outstanding
// PathHandles are revoked. Callers that failed to obtain a handle can
// cache the refusal against this value — every refusal reason is stable
// until the topology next mutates.
func (n *Network) Version() uint64 { return n.version }

// Transmit admits one packet of the given size on the handle's path and
// returns its arrival time, or dropped=true when the path's loss
// process consumed it. Timing, counters and PRNG draws are exactly
// those of Network.Send for the same packet; only the heap scheduling
// is left to the caller's lane. On a drop the caller must schedule
// nothing — Network.Send would not have either.
func (h PathHandle) Transmit(size int) (arrival Time, dropped bool) {
	arrival, dropped = h.n.admit(h.p, size)
	if dropped {
		h.n.fastLossDrops++
		return 0, true
	}
	h.n.fastSegs++
	h.n.fastBytes += uint64(size)
	return arrival, false
}

// FastPath resolves a handle for the directed path from → to, or an
// invalid handle when fast-forwarding is disabled on this network. A
// loss process — a total blackout included — does not disqualify the
// path: drops are resolved at send time by Transmit.
func (n *Network) FastPath(from, to HostID) PathHandle {
	if n.fastOff {
		return PathHandle{}
	}
	return PathHandle{n: n, p: n.pathState(from, to), version: n.version}
}

// SetFastPathEnabled toggles FastPath resolution (enabled by default).
// Disabling revokes outstanding handles, forcing every transfer back to
// the packet-level path — the differential equivalence tests run each
// scenario both ways and require identical observable behaviour.
func (n *Network) SetFastPathEnabled(on bool) {
	n.version++
	n.fastOff = !on
}

// NoteFastEpoch records a connection entering a fast-forwarded epoch
// (its segments start bypassing the event heap). Epoch entries are the
// natural cadence for publishing fast-path liveness to the telemetry
// hub: frequent enough for a one-second heartbeat, far off the
// per-segment path.
func (n *Network) NoteFastEpoch() {
	n.fastEpochs++
	if n.rtEngine != nil {
		n.flushRuntime()
	}
}

// FallbackReason classifies why a connection abandoned its fast-
// forwarded epoch back to the packet path. The numeric values are
// index-aligned with the telemetry hub's Reason constants and the
// fastpath_fallbacks_by_reason label order.
type FallbackReason uint8

// Fallback reasons, in canonical label order. Loss is not among them:
// a lane segment the loss process drops is counted (LossDrops) and the
// connection stays in its epoch.
const (
	// FallbackTopology: the topology version changed, or the peer's
	// stack stopped being directly resolvable (foreign lane, detached
	// handler, non-endpoint handler).
	FallbackTopology FallbackReason = rt.ReasonTopology
	// FallbackTeardown: the connection closed mid-epoch.
	FallbackTeardown FallbackReason = rt.ReasonTeardown
	// FallbackDisabled: fast-forwarding was switched off on this
	// network (SetFastPathEnabled(false)).
	FallbackDisabled FallbackReason = rt.ReasonDisabled
)

// String returns the reason's metric label value.
func (r FallbackReason) String() string {
	if int(r) < len(rt.ReasonNames) {
		return rt.ReasonNames[r]
	}
	return "unknown"
}

// NoteFastFallback records a connection falling back to the packet
// path mid-stream, classified by why the epoch could not continue.
func (n *Network) NoteFastFallback(reason FallbackReason) {
	n.fastFallbacks++
	if int(reason) < len(n.fastByReason) {
		n.fastByReason[reason]++
	}
	if n.rtEngine != nil {
		n.flushRuntime()
	}
}

// FastPathStats reports cumulative fast-path activity.
type FastPathStats struct {
	Epochs    uint64 // epochs entered by connections
	Segments  uint64 // segments that bypassed the event heap
	Bytes     uint64 // wire bytes carried by those segments
	Fallbacks uint64 // epochs abandoned back to the packet path
	LossDrops uint64 // lane segments consumed by loss processes at send time
	// FallbacksByReason breaks Fallbacks down, indexed by
	// FallbackReason.
	FallbacksByReason [rt.NumReasons]uint64
}

// FastPathStats returns cumulative fast-path counters.
func (n *Network) FastPathStats() FastPathStats {
	return FastPathStats{
		Epochs:            n.fastEpochs,
		Segments:          n.fastSegs,
		Bytes:             n.fastBytes,
		Fallbacks:         n.fastFallbacks,
		LossDrops:         n.fastLossDrops,
		FallbacksByReason: n.fastByReason,
	}
}

// SetRuntime wires (or unwires) the wall-clock telemetry hub for this
// network's fast-path counters. Deltas publish at epoch entries and
// fallbacks — never per segment.
func (n *Network) SetRuntime(e *rt.Engine) {
	n.rtEngine = e
	n.rtPub = n.FastPathStats()
	n.rtPubByReason = n.fastByReason
}

// flushRuntime publishes since-last-flush fast-path deltas to the hub.
func (n *Network) flushRuntime() {
	e := n.rtEngine
	if e == nil {
		return
	}
	cur := n.FastPathStats()
	var reasons [rt.NumReasons]uint64
	for i := range reasons {
		reasons[i] = n.fastByReason[i] - n.rtPubByReason[i]
	}
	e.AddFastpath(cur.Epochs-n.rtPub.Epochs, cur.Segments-n.rtPub.Segments,
		cur.Bytes-n.rtPub.Bytes, reasons)
	n.rtPub = cur
	n.rtPubByReason = n.fastByReason
}

// deliverNow hands pkt to its destination's handler, the delivery half
// of Send's packet events. The handler lookup happens at delivery time
// so Detach drops packets in flight, as before.
func (n *Network) deliverNow(pkt Packet) {
	if h, ok := n.hosts[pkt.To]; ok {
		h.Deliver(pkt)
	}
}

// PathStats reports counters for the directed path from → to.
type PathStats struct {
	Sent    uint64
	Dropped uint64
	Bytes   uint64
}

// Stats returns the counters of the directed path from → to.
func (n *Network) Stats(from, to HostID) PathStats {
	if p, ok := n.paths[pathKey{from, to}]; ok {
		return PathStats{Sent: p.sent, Dropped: p.dropped, Bytes: p.bytes}
	}
	return PathStats{}
}

// String summarizes the network for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("network(hosts=%d paths=%d)", len(n.hosts), len(n.paths))
}
