package tcpsim

import (
	"slices"
	"time"

	"fesplit/internal/simnet"
)

// maxBackoffs bounds consecutive unanswered retransmissions before the
// connection gives up (comparable to net.ipv4.tcp_retries2).
const maxBackoffs = 8

// state is the (reduced) TCP connection state.
type state uint8

const (
	stateSynSent state = iota
	stateSynRcvd
	stateEstablished
	stateClosed
)

// Conn is one TCP connection. Callbacks must be set before the simulator
// processes the relevant events (typically right after Dial, or inside
// the listener's accept function).
type Conn struct {
	// OnConnect fires when the connection reaches ESTABLISHED.
	OnConnect func()
	// OnData delivers in-order stream bytes as they arrive. The slice is
	// the sender's memory (what it passed to Send, or a segment built
	// across two writes): valid for as long as the receiver keeps it,
	// never to be modified.
	OnData func([]byte)
	// OnBlank delivers an in-order run of n content-free stream bytes
	// (see SendBlank), in stream order with OnData's deliveries.
	OnBlank func(n int)
	// OnClose fires once when the peer's FIN is received (end of the
	// peer's stream).
	OnClose func()

	ep         *Endpoint
	remote     simnet.HostID
	remotePort uint16
	localPort  uint16
	server     bool
	acceptFn   func(*Conn)
	st         state

	// --- send side ---
	sndUna  uint64 // oldest unacknowledged sequence number
	sndNxt  uint64 // next sequence number to send
	maxSent uint64 // highest sequence ever transmitted (Retrans marking)
	// sndq is the unacked + unsent stream, one run per write in sequence
	// order. Queued bytes are never modified, so anyone may point at
	// them: a run holds the slice Send was given, outgoing segments carry
	// subslices of it, and the receiver's hole list and application keep
	// those (see payload). Acks drop whole runs from the front.
	sndq      []sendRun
	sndEnd    uint64  // sequence number following the last queued byte
	cwnd      float64 // congestion window, bytes
	ssthresh  float64 // slow-start threshold, bytes
	peerWnd   int     // peer's advertised receive window
	dupAcks   int
	inRecov   bool
	recoverSq uint64 // sndNxt at loss detection; recovery ends at this ack
	finQueued bool
	finSent   bool
	finSeq    uint64
	finAcked  bool

	// SACK scoreboard (sender side): disjoint, sorted ranges the peer
	// reported holding; and the scan cursor for hole retransmissions
	// during recovery.
	sacked   []SACKBlock
	lastHole uint64

	// RTT estimation / RTO
	srtt       time.Duration
	rttvar     time.Duration
	rto        time.Duration
	rttSampled bool
	timedSeq   uint64 // ack that completes the timed sample
	timedAt    time.Duration
	timedValid bool
	timerArmed bool

	// Lazy RTO timer. Arming records the deadline and reserves a heap
	// sequence number but usually schedules nothing: a single pending
	// check event (tracked in timerEvs) covers successive re-arms, and
	// re-materializes itself at exactly (timerDeadline, timerSeq) — the
	// heap slot an eager per-arm Schedule would have claimed — when it
	// pops early. This removes the per-ACK closure allocation and heap
	// push of the eager scheme while keeping RTO fires bit-identical.
	timerDeadline time.Duration
	timerSeq      uint64
	timerFn       func()    // pre-bound timerCheck, allocated once
	timerEvs      []timerEv // pending check events, time-descending

	// Fast-lane cache: the outgoing path handle, the peer's connection
	// and this connection's delivery ring, resolved once per epoch and
	// revalidated by cheap generation compares per segment (see
	// fastEligible).
	fwdPath   simnet.PathHandle
	peer      *Conn // nil on a half-resolved (full-demux) ring
	peerEp    *Endpoint
	peerGen   uint64 // peerEp.demuxGen at resolution
	lane      *fastLane
	ring      *fastRing
	fastLane  bool   // currently inside a fast-forwarded epoch
	fastNo    bool   // resolution refused; don't retry until the topology changes
	fastNoVer uint64 // topology version the refusal was observed under
	// fastNoWhy is why resolution refused, cached with the refusal so a
	// later mid-epoch fallback reports the refusal's own reason.
	fastNoWhy simnet.FallbackReason

	// --- receive side ---
	rcvNxt   uint64
	ooo      []oooSeg // out-of-order segments held behind a hole, sorted by seq
	finRcvd  bool
	finRseq  uint64
	closedUp bool // OnClose already delivered

	// delayed-ACK state
	ackPending  int
	ackTimerGen uint64

	// retired marks a closed connection waiting for its pending RTO
	// check events to drain before it can enter the endpoint's free
	// list (see Endpoint.retire). Only set when recycling is on.
	retired bool

	// consecutive RTO expiries without progress; the connection aborts
	// after maxBackoffs so a vanished peer cannot generate retransmit
	// events forever.
	backoffs int

	// --- metrics ---
	retransmits  int
	fastRetrans  int
	timeouts     int
	bytesSent    uint64
	bytesRecved  uint64
	establishedT time.Duration
}

func newConn(ep *Endpoint, remote simnet.HostID, remotePort, localPort uint16, server bool) *Conn {
	if n := len(ep.free); n > 0 {
		c := ep.free[n-1]
		ep.free[n-1] = nil
		ep.free = ep.free[:n-1]
		c.reinit(remote, remotePort, localPort, server)
		return c
	}
	cfg := ep.cfg
	c := &Conn{
		ep:         ep,
		remote:     remote,
		remotePort: remotePort,
		localPort:  localPort,
		server:     server,
		cwnd:       float64(cfg.InitialCwnd * cfg.MSS),
		ssthresh:   float64(cfg.InitialSsthresh),
		peerWnd:    cfg.RcvWindow, // until the peer advertises
		rto:        time.Second,   // RFC 6298 initial RTO
		sndEnd:     1,             // data starts after the SYN
	}
	if server {
		c.st = stateSynRcvd
	} else {
		c.st = stateSynSent
	}
	return c
}

// reinit resets a recycled connection object for a fresh connection.
// Preconditions (enforced by Endpoint.retire): the previous incarnation
// is closed, out of the demux table, and has no pending timer check
// events. Three things deliberately survive across incarnations:
// timerFn (the pre-bound check closure), the backing arrays of the
// emptied sndq, ooo and sacked lists (capacity reuse — cleared, so they
// pin none of the previous life's bytes), and ackTimerGen — which
// advances monotonically so a delayed-ACK closure scheduled by a
// previous life can never match the new incarnation's generation.
func (c *Conn) reinit(remote simnet.HostID, remotePort, localPort uint16, server bool) {
	cfg := c.ep.cfg
	c.OnConnect, c.OnData, c.OnBlank, c.OnClose = nil, nil, nil, nil
	c.acceptFn = nil
	c.remote, c.remotePort, c.localPort, c.server = remote, remotePort, localPort, server
	c.sndUna, c.sndNxt, c.maxSent = 0, 0, 0
	clear(c.sndq)
	c.sndq, c.sndEnd = c.sndq[:0], 1
	c.cwnd = float64(cfg.InitialCwnd * cfg.MSS)
	c.ssthresh = float64(cfg.InitialSsthresh)
	c.peerWnd = cfg.RcvWindow
	c.dupAcks, c.inRecov, c.recoverSq = 0, false, 0
	c.finQueued, c.finSent, c.finSeq, c.finAcked = false, false, 0, false
	c.sacked = c.sacked[:0]
	c.lastHole = 0
	c.srtt, c.rttvar, c.rto = 0, 0, time.Second
	c.rttSampled = false
	c.timedSeq, c.timedAt, c.timedValid = 0, 0, false
	c.timerArmed, c.timerDeadline, c.timerSeq = false, 0, 0
	c.fwdPath = simnet.PathHandle{}
	c.peer, c.peerEp, c.peerGen = nil, nil, 0
	c.lane, c.ring = nil, nil
	c.fastLane, c.fastNo, c.fastNoVer, c.fastNoWhy = false, false, 0, 0
	c.rcvNxt = 0
	c.finRcvd, c.finRseq, c.closedUp = false, 0, false
	c.ackPending = 0
	c.ackTimerGen++
	c.backoffs = 0
	c.retransmits, c.fastRetrans, c.timeouts = 0, 0, 0
	c.bytesSent, c.bytesRecved = 0, 0
	c.establishedT = 0
	c.retired = false
	if server {
		c.st = stateSynRcvd
	} else {
		c.st = stateSynSent
	}
}

// RemoteHost returns the peer's host ID.
func (c *Conn) RemoteHost() simnet.HostID { return c.remote }

// RemotePort returns the peer's port.
func (c *Conn) RemotePort() uint16 { return c.remotePort }

// LocalPort returns the local port.
func (c *Conn) LocalPort() uint16 { return c.localPort }

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.st == stateEstablished }

// Closed reports whether the connection has fully terminated.
func (c *Conn) Closed() bool { return c.st == stateClosed }

// Metrics summarizes the connection's transport behaviour.
type Metrics struct {
	Retransmits   int
	FastRetrans   int
	Timeouts      int
	BytesSent     uint64
	BytesReceived uint64
	SRTT          time.Duration
	Cwnd          int // bytes
	EstablishedAt time.Duration
}

// Metrics returns a snapshot of transport counters.
func (c *Conn) Metrics() Metrics {
	return Metrics{
		Retransmits:   c.retransmits,
		FastRetrans:   c.fastRetrans,
		Timeouts:      c.timeouts,
		BytesSent:     c.bytesSent,
		BytesReceived: c.bytesRecved,
		SRTT:          c.srtt,
		Cwnd:          int(c.cwnd),
		EstablishedAt: c.establishedT,
	}
}

// Send queues data for transmission — the slice itself, not a copy, so
// the caller must not modify data afterwards. Bytes sent before the
// handshake completes are held and flushed on connect. Send after Close
// is ignored.
func (c *Conn) Send(data []byte) {
	c.SendBlank(data, 0, nil)
}

// SendBlank queues head, then n content-free bytes, then tail, as one
// write: the stream is segmented and timed exactly as Send of
// len(head)+n+len(tail) real bytes would be, but the n bytes are never
// built, buffered or copied — they occupy sequence space and wire size
// only, and reach the peer through OnBlank. head and tail (either may
// be empty) are the real bytes that frame the run, e.g. HTTP chunk
// framing; like Send's data they must not be modified afterwards.
func (c *Conn) SendBlank(head []byte, n int, tail []byte) {
	if c.finQueued || c.st == stateClosed || len(head)+n+len(tail) == 0 {
		return
	}
	c.queue(head, len(head))
	c.queue(nil, n)
	c.queue(tail, len(tail))
	if c.st == stateEstablished {
		c.trySend()
	}
}

// sendRun is one queued write: stream range [seq, end) and its bytes,
// or nil data for a content-free run.
type sendRun struct {
	seq, end uint64
	data     []byte
}

// queue appends n bytes to the send queue: data, or a content-free run
// when data is nil (adjacent content-free runs merge).
func (c *Conn) queue(data []byte, n int) {
	if n == 0 {
		return
	}
	seq := c.sndEnd
	c.sndEnd += uint64(n)
	if k := len(c.sndq); data == nil && k > 0 && c.sndq[k-1].data == nil {
		c.sndq[k-1].end = c.sndEnd
		return
	}
	c.sndq = append(c.sndq, sendRun{seq: seq, end: c.sndEnd, data: data})
}

// Close queues a FIN after all pending data; the connection terminates
// once the FIN is acknowledged and the peer's FIN (if any) has arrived.
func (c *Conn) Close() {
	if c.finQueued || c.st == stateClosed {
		return
	}
	c.finQueued = true
	if c.st == stateEstablished {
		c.trySend()
	}
}

// --- segment construction ---

func (c *Conn) seg(flags Flags, seq uint64) Segment {
	s := Segment{
		SrcPort: c.localPort,
		DstPort: c.remotePort,
		Flags:   flags,
		Seq:     seq,
		Wnd:     c.ep.cfg.RcvWindow,
	}
	if flags&FlagACK != 0 {
		s.Ack = c.rcvNxt
		if c.ep.cfg.SACK && len(c.ooo) > 0 {
			s.SACK = c.sackBlocks()
		}
	}
	return s
}

// dataSeg builds the data segment carrying stream range [seq, seq+n).
func (c *Conn) dataSeg(seq, n uint64) Segment {
	s := c.seg(FlagACK, seq)
	s.Data, s.Blank = c.payload(seq, n)
	return s
}

// sortSACK is an allocation-free insertion sort for the sender's SACK
// scoreboard — a handful of elements at most, where sort.Slice's
// closure allocation and interface indirection dominate the actual
// sorting work.
func sortSACK(a []SACKBlock) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].Start < a[j-1].Start; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// sackBlocks merges the out-of-order buffer into up to three
// selective-ack ranges (RFC 2018 limits blocks to what fits the TCP
// option space).
func (c *Conn) sackBlocks() []SACKBlock {
	// The returned slice is aliased by in-flight segments until
	// delivery, so it cannot come from a per-connection scratch; a
	// single cap-3 allocation replaces append's doubling growth. The
	// hole list is sorted — no per-ACK sort (this runs for every ACK
	// while a hole is open).
	blocks := make([]SACKBlock, 0, 3)
	for _, d := range c.ooo {
		k, end := d.seq, d.seq+uint64(d.n)
		if n := len(blocks); n > 0 && blocks[n-1].End >= k {
			if end > blocks[n-1].End {
				blocks[n-1].End = end
			}
			continue
		}
		if len(blocks) == 3 {
			// A fourth disjoint range would be truncated anyway; later
			// entries can only merge into it, never into blocks[0..2].
			break
		}
		blocks = append(blocks, SACKBlock{Start: k, End: end})
	}
	return blocks
}

// addSACK folds the peer's reported blocks into the sender scoreboard,
// keeping it sorted and disjoint.
func (c *Conn) addSACK(blocks []SACKBlock) {
	for _, b := range blocks {
		if b.End <= b.Start || b.End <= c.sndUna {
			continue
		}
		c.sacked = append(c.sacked, b)
	}
	if len(c.sacked) < 2 {
		return
	}
	sortSACK(c.sacked)
	merged := c.sacked[:1]
	for _, b := range c.sacked[1:] {
		last := &merged[len(merged)-1]
		if b.Start <= last.End {
			if b.End > last.End {
				last.End = b.End
			}
			continue
		}
		merged = append(merged, b)
	}
	c.sacked = merged
}

// pruneSACK drops scoreboard ranges cumulatively acknowledged.
func (c *Conn) pruneSACK(una uint64) {
	kept := c.sacked[:0]
	for _, b := range c.sacked {
		if b.End <= una {
			continue
		}
		if b.Start < una {
			b.Start = una
		}
		kept = append(kept, b)
	}
	c.sacked = kept
}

// retransmitHole resends the first un-SACKed hole at or after `from`
// (and ≥ sndUna). During recovery only data sent before the loss was
// detected (below recoverSq) is eligible — anything above is merely in
// flight, not lost (RFC 6675's high-data bound). It reports whether a
// hole was sent and advances the recovery cursor.
func (c *Conn) retransmitHole(from uint64) bool {
	start := from
	if start < c.sndUna {
		start = c.sndUna
	}
	// Skip past any SACKed range covering start.
	for _, b := range c.sacked {
		if start >= b.Start && start < b.End {
			start = b.End
		}
	}
	limit := c.sndNxt
	if c.inRecov && c.recoverSq < limit {
		limit = c.recoverSq
	}
	if start >= limit {
		return false
	}
	// RFC 6675 IsLost: a hole counts as lost (not merely in flight)
	// only when at least DupThresh (3) segments' worth of SACKed data
	// lies above it. The very first hole (sndUna) is always eligible —
	// three duplicate ACKs already proved it.
	if start > c.sndUna {
		var above uint64
		for _, b := range c.sacked {
			if b.End > start {
				lo := b.Start
				if lo < start {
					lo = start
				}
				above += b.End - lo
			}
		}
		if above < 3*uint64(c.ep.cfg.MSS) {
			return false
		}
	}
	if start >= c.sndEnd {
		if c.finSent && start == c.finSeq {
			s := c.seg(FlagFIN|FlagACK, c.finSeq)
			s.Retrans = true
			c.transmit(s)
			c.lastHole = start + 1
			return true
		}
		return false
	}
	// Hole length: up to MSS, capped at the next SACKed range.
	n := uint64(c.ep.cfg.MSS)
	if n > c.sndEnd-start {
		n = c.sndEnd - start
	}
	for _, b := range c.sacked {
		if b.Start > start && b.Start-start < n {
			n = b.Start - start
		}
	}
	s := c.dataSeg(start, n)
	s.Retrans = true
	c.transmit(s)
	c.lastHole = start + n
	return true
}

// payload returns the outgoing segment payload for stream range
// [seq, seq+n), which must lie at or above sndUna: a subslice of the one
// queued run that holds it — zero-copy, safe because queued bytes are
// never modified (the capacity cap keeps a misbehaving receiver from
// appending into the sender's slice) — or, inside a content-free run, no
// bytes and the length.
func (c *Conn) payload(seq, n uint64) (data []byte, blank int) {
	i := 0
	for c.sndq[i].end <= seq {
		i++
	}
	end := seq + n
	if r := c.sndq[i]; end <= r.end {
		if r.data == nil {
			return nil, int(n)
		}
		off := seq - r.seq
		return r.data[off : off+n : off+n], 0
	}
	// The range straddles runs (a header sharing a segment with its
	// body, chunk framing, a retransmission cut differently from the
	// original): a segment is one slice of one kind, so materialise this
	// one — real bytes in place, zeros where the stream is content-free.
	buf := make([]byte, n)
	for ; i < len(c.sndq) && c.sndq[i].seq < end; i++ {
		if r := c.sndq[i]; r.data != nil {
			lo := max(r.seq, seq)
			copy(buf[lo-seq:], r.data[lo-r.seq:])
		}
	}
	return buf, 0
}

func (c *Conn) transmit(s Segment) {
	c.bytesSent += uint64(s.PayloadLen())
	if c.fastEligible() {
		c.fastSend(s)
		return
	}
	if c.fastLane {
		c.fastLane = false
		c.ep.net.NoteFastFallback(c.fallbackReason())
	}
	c.ep.send(c.remote, s)
}

// fallbackReason classifies why the epoch the connection was inside
// can no longer continue. Called right after fastEligible returned
// false, so the refusal cache — refreshed by that very call when
// resolution re-ran — carries the current refusal's reason.
func (c *Conn) fallbackReason() simnet.FallbackReason {
	if c.st == stateClosed {
		return simnet.FallbackTeardown
	}
	if c.fastNo && c.fastNoVer == c.ep.net.Version() {
		return c.fastNoWhy
	}
	return simnet.FallbackTopology
}

// fastEligible reports whether this segment can bypass the event heap:
// fast-forwarding is on and the peer endpoint's stack is directly
// reachable. Handshake segments qualify too — a peer whose
// connection object is not resolvable yet (the initial SYN precedes its
// creation) rides a half-resolved ring whose deliveries take the full
// Deliver demux, which handles listener accept exactly as a heap-
// scheduled packet would.
//
// The steady-state cost is two generation compares; resolution runs on
// the first segment of an epoch or after a topology/demux change
// invalidated the cache, and refusals are cached against the topology
// version (every refusal reason is stable until the topology mutates).
func (c *Conn) fastEligible() bool {
	if c.st == stateClosed {
		return false
	}
	if !c.fwdPath.Valid() {
		if c.fastNo && c.fastNoVer == c.ep.net.Version() {
			return false
		}
		return c.resolveFast()
	}
	if c.peer == nil {
		// Half-resolved: upgrade to direct dispatch when the peer's
		// connection appears; deliveries stay correct either way.
		c.resolvePeer()
		return true
	}
	if c.peerEp.demuxGen != c.peerGen && !c.resolvePeer() {
		// The peer's connection left the demux table. Demote to the
		// full-demux ring: the packet path would deliver into the same
		// vanished-connection drop, and Deliver reproduces it.
		c.peer = nil
		c.ring = &fastRing{dstEp: c.peerEp, from: c.ep.host}
	}
	return true
}

// resolveFast (re)derives the fast-lane cache. Failure leaves the
// connection on the packet path until the topology version changes.
func (c *Conn) resolveFast() bool {
	net := c.ep.net
	h := net.FastPath(c.ep.host, c.remote)
	if !h.Valid() {
		// FastPath refuses only when the engine is switched off.
		return c.noFast(simnet.FallbackDisabled)
	}
	lane := laneFor(c.ep.Sim())
	if lane == nil {
		return c.noFast(simnet.FallbackTopology)
	}
	ep, ok := net.Handler(c.remote).(*Endpoint)
	if !ok {
		return c.noFast(simnet.FallbackTopology)
	}
	c.peerEp = ep
	if !c.resolvePeer() {
		c.peer = nil
		c.ring = &fastRing{dstEp: ep, from: c.ep.host}
	}
	c.fwdPath = h
	c.lane = lane
	c.fastNo = false
	return true
}

func (c *Conn) noFast(why simnet.FallbackReason) bool {
	c.fastNo = true
	c.fastNoVer = c.ep.net.Version()
	c.fastNoWhy = why
	return false
}

// resolvePeer locates the peer's connection object through its
// endpoint's demux table — the same lookup a delivered packet performs,
// done once and cached under the table's generation counter — and keeps
// the delivery ring pointed at it. c.peerEp must be set.
func (c *Conn) resolvePeer() bool {
	ep := c.peerEp
	peer, ok := ep.conns[connKey{c.ep.host, c.localPort, c.remotePort}]
	if !ok {
		return false
	}
	c.peer = peer
	c.peerGen = ep.demuxGen
	if c.ring == nil || c.ring.dst != peer || c.ring.dstEp != ep {
		// First epoch, or the demux key resolved to a new connection
		// object: start a fresh ring and let any old one drain. A ring
		// must never mix destinations.
		c.ring = &fastRing{dst: peer, dstEp: ep, from: c.ep.host}
	}
	c.ring.dstGen = c.peerGen
	return true
}

// fastSend transmits one segment through the fast lane: identical tap
// and metrics effects to Endpoint.send, arrival computed by the shared
// path state machine, delivery queued on the lane under a sequence
// number drawn exactly where Network.Send's heap push would have drawn
// it. See docs/PERF.md for why the result is bit-identical to the
// packet path.
func (c *Conn) fastSend(s Segment) {
	e := c.ep
	if !c.fastLane {
		c.fastLane = true
		e.net.NoteFastEpoch()
	}
	if e.Tap != nil {
		e.Tap(TapEvent{Time: e.Sim().Now(), Dir: DirSend, Remote: string(c.remote), Segment: s})
	}
	if m := e.Metrics; m != nil {
		m.SegsSent.Inc()
		if s.Retrans {
			m.Retransmits.Inc()
		}
	}
	arrival, dropped := c.fwdPath.Transmit(e.cfg.HeaderSize + s.PayloadLen())
	if dropped {
		// The loss process consumed the segment at send time — exactly
		// the draw Network.Send would have made; nothing is scheduled in
		// either lane, and the recovery exchange that follows is lane
		// traffic like any other.
		return
	}
	r := c.ring
	if r.n > 0 && arrival < r.tailAt {
		// Arrival regressed below an event already queued: a SetPath
		// reset the path's FIFO clamp mid-flight. Rings must stay
		// monotone, so start a fresh one; the heap merge orders the
		// overlap exactly as the global heap would have.
		r = &fastRing{dst: r.dst, dstEp: r.dstEp, dstGen: r.dstGen, from: r.from}
		c.ring = r
	}
	c.lane.enqueue(r, fastEvent{at: arrival, seq: e.Sim().TakeSeq(), seg: s})
}

// sendSYN begins the client handshake.
func (c *Conn) sendSYN() {
	c.sndNxt = 1
	c.startTimed(1)
	c.transmit(c.seg(FlagSYN, 0))
	c.armTimer(c.rto)
}

func (c *Conn) sendSynAck() {
	c.sndNxt = 1
	c.startTimed(1)
	c.transmit(c.seg(FlagSYN|FlagACK, 0))
	c.armTimer(c.rto)
}

// sendAck emits an immediate pure ACK.
func (c *Conn) sendAck() {
	c.ackPending = 0
	c.ackTimerGen++
	c.transmit(c.seg(FlagACK, c.sndNxt))
}

// scheduleAck acknowledges received data, immediately or delayed per
// configuration.
func (c *Conn) scheduleAck() {
	if !c.ep.cfg.DelayedAck {
		c.sendAck()
		return
	}
	c.ackPending++
	if c.ackPending >= 2 {
		c.sendAck()
		return
	}
	c.ackTimerGen++
	gen := c.ackTimerGen
	c.ep.Sim().Schedule(c.ep.cfg.DelayedAckTimeout, func() {
		if gen == c.ackTimerGen && c.ackPending > 0 {
			c.sendAck()
		}
	})
}

// --- timers ---

// timerEv records one pending RTO check event: the heap slot it
// occupies. The stack is time-descending (minimum at the end) because
// a new check is only ever scheduled below every pending one — see
// armTimer — and the heap necessarily pops this connection's checks in
// ascending time order.
type timerEv struct {
	at  time.Duration
	seq uint64
}

// armTimer (re)sets the retransmission timer d from now.
//
// The eager scheme scheduled a fresh closure per arm — one allocation
// and one heap push per ACK on a busy connection, almost all of them
// stale by the time they popped. The lazy scheme records the deadline,
// reserves the sequence number that per-arm Schedule call would have
// consumed (keeping every later event's tie-break seq identical), and
// schedules a check event only when no pending check is due at or
// before the new deadline. A check popping before the live deadline
// re-schedules itself at exactly (timerDeadline, timerSeq); a check
// popping at the live deadline fires. Either way the RTO executes in
// precisely the heap slot the eager scheme's event occupied, so
// behaviour — even under loss, where RTOs actually fire — is
// bit-identical while the common loss-free connection pays one check
// event per RTO-quantum instead of one push per ACK.
func (c *Conn) armTimer(d time.Duration) {
	sim := c.ep.Sim()
	at := sim.Now() + d
	c.timerArmed = true
	c.timerDeadline = at
	c.timerSeq = sim.TakeSeq()
	if n := len(c.timerEvs); n > 0 && c.timerEvs[n-1].at <= at {
		return // a pending check pops by the deadline and will cover it
	}
	c.scheduleCheck(at, c.timerSeq)
}

// scheduleCheck pushes a check event at (at, seq) and records it. The
// caller guarantees at is strictly below every pending check time, so
// appending keeps the stack time-descending.
func (c *Conn) scheduleCheck(at time.Duration, seq uint64) {
	if c.timerFn == nil {
		c.timerFn = c.timerCheck
	}
	c.ep.Sim().ScheduleAtSeq(at, seq, c.timerFn)
	c.timerEvs = append(c.timerEvs, timerEv{at: at, seq: seq})
}

// timerCheck runs when a check event pops. It fires the RTO only from
// the exact (deadline, seq) slot the current arm reserved; any other
// pop is a stale check that either dies or re-materializes the live
// deadline.
func (c *Conn) timerCheck() {
	n := len(c.timerEvs) - 1
	ev := c.timerEvs[n]
	c.timerEvs = c.timerEvs[:n]
	if !c.timerArmed || c.st == stateClosed {
		if c.retired && n == 0 {
			// The last check event referencing this retired object has
			// drained; the recycle can complete.
			c.ep.pushFree(c)
		}
		return
	}
	now := c.ep.Sim().Now()
	if now >= c.timerDeadline && (now > c.timerDeadline || ev.seq == c.timerSeq) {
		// now > deadline cannot happen — a pending check always covers
		// the live deadline — but fire rather than stall if it ever did.
		c.timerArmed = false
		c.onTimeout()
		return
	}
	if n == 0 || c.timerEvs[n-1].at > c.timerDeadline {
		c.scheduleCheck(c.timerDeadline, c.timerSeq)
	}
}

func (c *Conn) cancelTimer() {
	c.timerArmed = false
}

// startTimed begins an RTT sample completed by an ack ≥ ackAt.
func (c *Conn) startTimed(ackAt uint64) {
	if c.timedValid {
		return // one sample at a time
	}
	c.timedSeq = ackAt
	c.timedAt = c.ep.Sim().Now()
	c.timedValid = true
}

func (c *Conn) sampleRTT() {
	r := c.ep.Sim().Now() - c.timedAt
	c.timedValid = false
	if !c.rttSampled {
		c.srtt = r
		c.rttvar = r / 2
		c.rttSampled = true
	} else {
		// RFC 6298: RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R|,
		// SRTT = 7/8·SRTT + 1/8·R.
		diff := c.srtt - r
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + r) / 8
	}
	rto := c.srtt + 4*c.rttvar
	if rto < c.ep.cfg.MinRTO {
		rto = c.ep.cfg.MinRTO
	}
	if rto > c.ep.cfg.MaxRTO {
		rto = c.ep.cfg.MaxRTO
	}
	c.rto = rto
}

// onTimeout handles an RTO expiry: multiplicative backoff, collapse the
// window and retransmit the oldest outstanding segment (RFC 5681 §3.1).
func (c *Conn) onTimeout() {
	c.timerArmed = false
	if c.st == stateClosed {
		return
	}
	outstanding := c.sndNxt - c.sndUna
	if outstanding == 0 {
		return
	}
	c.backoffs++
	if c.backoffs > maxBackoffs {
		c.abort()
		return
	}
	c.timeouts++
	c.retransmits++
	if m := c.ep.Metrics; m != nil {
		m.RTOs.Inc()
	}
	mss := float64(c.ep.cfg.MSS)
	half := float64(outstanding) / 2
	if half < 2*mss {
		half = 2 * mss
	}
	c.ssthresh = half
	c.cwnd = mss
	c.dupAcks = 0
	c.inRecov = false
	c.timedValid = false // Karn: never time retransmitted data
	c.rto *= 2
	if c.rto > c.ep.cfg.MaxRTO {
		c.rto = c.ep.cfg.MaxRTO
	}
	if c.st == stateEstablished {
		// Go-back-N: after an RTO, data beyond sndUna is no longer
		// considered in flight; slow start re-clocks the
		// retransmissions ACK by ACK. Without this rewind the stale
		// "flight" blocks trySend and every later hole costs another
		// full backed-off RTO — a retransmission death spiral.
		c.sndNxt = c.sndUna
		if c.finSent && c.sndNxt <= c.finSeq {
			c.finSent = false
		}
		c.trySend()
	} else {
		c.retransmitOldest()
	}
	c.armTimer(c.rto)
}

// retransmitOldest resends whatever occupies sequence number sndUna.
func (c *Conn) retransmitOldest() {
	switch c.st {
	case stateSynSent:
		s := c.seg(FlagSYN, 0)
		s.Retrans = true
		c.transmit(s)
		return
	case stateSynRcvd:
		s := c.seg(FlagSYN|FlagACK, 0)
		s.Retrans = true
		c.transmit(s)
		return
	}
	if c.sndUna < c.sndEnd {
		n := uint64(c.ep.cfg.MSS)
		if n > c.sndEnd-c.sndUna {
			n = c.sndEnd - c.sndUna
		}
		s := c.dataSeg(c.sndUna, n)
		s.Retrans = true
		c.transmit(s)
		return
	}
	if c.finSent && c.sndUna == c.finSeq {
		s := c.seg(FlagFIN|FlagACK, c.finSeq)
		s.Retrans = true
		c.transmit(s)
	}
}

// --- receive path ---

// handle processes one incoming segment.
func (c *Conn) handle(s Segment) {
	switch c.st {
	case stateSynSent:
		if s.Flags&FlagSYN != 0 && s.Flags&FlagACK != 0 && s.Ack >= 1 {
			c.rcvNxt = s.Seq + 1
			c.sndUna = 1
			c.peerWnd = s.Wnd
			if c.timedValid && s.Ack >= c.timedSeq {
				c.sampleRTT()
			}
			c.cancelTimer()
			c.establish()
			c.sendAck()
			c.trySend()
		}
		return
	case stateSynRcvd:
		if s.Flags&FlagSYN != 0 && s.Flags&FlagACK == 0 {
			if c.sndNxt == 0 { // first SYN
				c.rcvNxt = s.Seq + 1
				c.sendSynAck()
			} else { // duplicate SYN: retransmit SYN-ACK
				c.retransmitOldest()
			}
			return
		}
		if s.Flags&FlagACK != 0 && s.Ack >= 1 {
			c.sndUna = 1
			c.peerWnd = s.Wnd
			if c.timedValid && s.Ack >= c.timedSeq {
				c.sampleRTT()
			}
			c.cancelTimer()
			c.establish()
			// The establishing segment may carry data; fall through.
			if s.PayloadLen() > 0 || s.Flags&FlagFIN != 0 {
				c.processPayload(s)
			}
			c.trySend()
		}
		return
	case stateClosed:
		return
	}

	// ESTABLISHED.
	if s.Flags&FlagSYN != 0 {
		// A retransmitted SYN|ACK means our final handshake ACK was
		// lost; re-acknowledge so the peer can establish.
		c.sendAck()
		return
	}
	if s.Flags&FlagACK != 0 {
		c.processAck(s)
	}
	if s.PayloadLen() > 0 || s.Flags&FlagFIN != 0 {
		c.processPayload(s)
	}
	c.maybeFinish()
}

func (c *Conn) establish() {
	c.st = stateEstablished
	c.backoffs = 0
	c.establishedT = c.ep.Sim().Now()
	if c.acceptFn != nil {
		fn := c.acceptFn
		c.acceptFn = nil
		fn(c)
	}
	if c.OnConnect != nil {
		c.OnConnect()
	}
}

// processAck handles the acknowledgment field of an incoming segment.
func (c *Conn) processAck(s Segment) {
	c.peerWnd = s.Wnd
	mss := float64(c.ep.cfg.MSS)
	if c.ep.cfg.SACK && len(s.SACK) > 0 {
		c.addSACK(s.SACK)
	}

	if s.Ack > c.sndUna {
		// New data acknowledged.
		if c.timedValid && s.Ack >= c.timedSeq {
			c.sampleRTT()
		}
		c.advanceUna(s.Ack)
		c.dupAcks = 0
		c.backoffs = 0

		if c.inRecov {
			if s.Ack >= c.recoverSq {
				// Full recovery: deflate.
				c.inRecov = false
				c.cwnd = c.ssthresh
			} else {
				// Partial ack: retransmit the next hole, keep
				// recovery going. With SACK the hole scan skips
				// already-received ranges (RFC 6675 flavor); without
				// it this is NewReno's one-hole-per-RTT.
				c.retransmits++
				if c.ep.cfg.SACK {
					if !c.retransmitHole(s.Ack) {
						c.retransmitOldest()
					}
				} else {
					c.retransmitOldest()
				}
			}
		} else if c.cwnd < c.ssthresh {
			c.cwnd += mss // slow start
		} else {
			c.cwnd += mss * mss / c.cwnd // congestion avoidance
		}

		if c.sndUna == c.sndNxt {
			c.cancelTimer()
		} else {
			c.armTimer(c.rto) // restart for remaining data
		}
		c.trySend()
		return
	}

	// Possible duplicate ACK: pure ACK, no data, nothing new acked,
	// with data outstanding.
	if s.Ack == c.sndUna && s.PayloadLen() == 0 && s.Flags&FlagFIN == 0 &&
		c.sndNxt > c.sndUna {
		c.dupAcks++
		if m := c.ep.Metrics; m != nil {
			m.DupAcks.Inc()
		}
		switch {
		case c.dupAcks == 3 && !c.inRecov:
			// Fast retransmit + fast recovery (Reno / SACK).
			c.fastRetrans++
			c.retransmits++
			if m := c.ep.Metrics; m != nil {
				m.FastRetrans.Inc()
			}
			flight := float64(c.sndNxt - c.sndUna)
			half := flight / 2
			if half < 2*mss {
				half = 2 * mss
			}
			c.ssthresh = half
			c.inRecov = true
			c.recoverSq = c.sndNxt
			c.timedValid = false
			if c.ep.cfg.SACK {
				c.lastHole = c.sndUna
				if !c.retransmitHole(c.sndUna) {
					c.retransmitOldest()
				}
			} else {
				c.retransmitOldest()
			}
			c.cwnd = c.ssthresh + 3*mss
			c.armTimer(c.rto)
		case c.dupAcks > 3 && c.inRecov:
			c.cwnd += mss // window inflation per extra dup ack
			// With SACK, each further dup-ack lets us fill the next
			// hole — multiple losses repair within one RTT.
			if c.ep.cfg.SACK && c.retransmitHole(c.lastHole) {
				c.retransmits++
				break
			}
			c.trySend()
		}
	}
}

// advanceUna moves the send window forward to ack, dropping the runs it
// covers whole (a partly acked run stays until its last byte is acked).
// slices.Delete clears the vacated tail, so a long-lived or recycled
// connection pins no acknowledged bytes.
func (c *Conn) advanceUna(ack uint64) {
	if c.finSent && ack > c.finSeq {
		c.finAcked = true
	}
	k := 0
	for k < len(c.sndq) && c.sndq[k].end <= ack {
		k++
	}
	c.sndq = slices.Delete(c.sndq, 0, k)
	c.sndUna = ack
	if len(c.sacked) > 0 {
		c.pruneSACK(ack)
	}
}

// oooSeg is one buffered out-of-order payload: n stream bytes from seq,
// and the arriving segment's own data slice — the sender's memory, like
// an in-order delivery — or nil if the segment was content-free.
type oooSeg struct {
	seq  uint64
	n    int
	data []byte
}

// processPayload handles data bytes and FIN of an incoming segment.
func (c *Conn) processPayload(s Segment) {
	plen := s.PayloadLen()
	dataEnd := s.Seq + uint64(plen)

	switch {
	case s.Seq == c.rcvNxt:
		// In-order: deliver, then drain any contiguous out-of-order
		// segments.
		if plen > 0 {
			c.deliver(s.Data, plen)
			c.rcvNxt = dataEnd
		}
		drained := c.drainOOO()
		if s.Flags&FlagFIN != 0 && c.rcvNxt == dataEnd {
			c.handleFIN(dataEnd)
			return
		}
		if plen > 0 {
			if drained || len(c.ooo) > 0 {
				c.sendAck() // filling a hole: ack immediately
			} else {
				c.scheduleAck()
			}
		}
	case s.Seq > c.rcvNxt:
		// Out of order: hold the segment in the sorted hole list (one
		// entry per sequence number; arrivals cluster near the tail, so
		// the scan is typically a single compare) and send an immediate
		// duplicate ACK.
		if plen > 0 {
			i := len(c.ooo)
			for i > 0 && c.ooo[i-1].seq > s.Seq {
				i--
			}
			if i == 0 || c.ooo[i-1].seq != s.Seq {
				c.ooo = slices.Insert(c.ooo, i, oooSeg{seq: s.Seq, n: plen, data: s.Data})
			}
		}
		if s.Flags&FlagFIN != 0 {
			c.finRcvd = true
			c.finRseq = dataEnd
		}
		c.sendAck()
	default: // s.Seq < c.rcvNxt
		if dataEnd > c.rcvNxt {
			// Partially new: deliver the new tail.
			tail := s.Data
			if tail != nil {
				tail = tail[c.rcvNxt-s.Seq:]
			}
			c.deliver(tail, int(dataEnd-c.rcvNxt))
			c.rcvNxt = dataEnd
			c.drainOOO()
		}
		if s.Flags&FlagFIN != 0 && c.rcvNxt == dataEnd {
			c.handleFIN(dataEnd)
			return
		}
		c.sendAck() // duplicate data: re-ack
	}

	// A FIN buffered earlier may now be reachable.
	if c.finRcvd && !c.closedUp && c.rcvNxt == c.finRseq {
		c.handleFIN(c.finRseq)
	}
}

func (c *Conn) handleFIN(seqEnd uint64) {
	c.finRcvd = true
	c.finRseq = seqEnd
	c.rcvNxt = seqEnd + 1
	c.sendAck()
	if !c.closedUp {
		c.closedUp = true
		if c.OnClose != nil {
			c.OnClose()
		}
	}
	c.maybeFinish()
}

// drainOOO delivers held segments that have become contiguous — each
// leaves the list before its callback runs, so a segment sent from the
// callback SACKs only what is still held — and reports whether anything
// was drained. Entries a differently cut retransmission left below
// rcvNxt are dropped only after a drain: until then they keep counting
// as a held hole (immediate ACKs, SACK blocks) — wire-visible, and what
// the lossy goldens and digests pin.
func (c *Conn) drainOOO() bool {
	drained := false
	i := 0
	for i < len(c.ooo) && c.ooo[i].seq <= c.rcvNxt {
		d := c.ooo[i]
		if d.seq < c.rcvNxt {
			i++
			continue
		}
		c.ooo = slices.Delete(c.ooo, i, i+1)
		c.deliver(d.data, d.n)
		c.rcvNxt += uint64(d.n)
		drained = true
	}
	if drained {
		c.ooo = slices.Delete(c.ooo, 0, i)
	}
	return drained
}

// deliver hands n in-order stream bytes to the application: data when
// the bytes exist, a content-free run of n otherwise.
func (c *Conn) deliver(data []byte, n int) {
	c.bytesRecved += uint64(n)
	if data == nil {
		if c.OnBlank != nil {
			c.OnBlank(n)
		}
		return
	}
	if c.OnData != nil {
		c.OnData(data)
	}
}

// --- send path ---

// trySend transmits as much queued data as the congestion and peer
// windows allow, then the FIN if queued and reachable.
func (c *Conn) trySend() {
	if c.st != stateEstablished {
		return
	}
	mss := uint64(c.ep.cfg.MSS)

	for c.sndNxt < c.sndEnd {
		wnd := uint64(c.cwnd)
		if pw := uint64(c.peerWnd); pw < wnd {
			wnd = pw
		}
		flight := c.sndNxt - c.sndUna
		if flight >= wnd {
			return
		}
		n := wnd - flight
		if n > mss {
			n = mss
		}
		if n > c.sndEnd-c.sndNxt {
			n = c.sndEnd - c.sndNxt
		}
		if n == 0 {
			return
		}
		s := c.dataSeg(c.sndNxt, n)
		if c.sndNxt < c.maxSent {
			s.Retrans = true // go-back-N resend after an RTO
		} else {
			c.startTimed(c.sndNxt + n) // Karn: time first transmissions only
		}
		c.transmit(s)
		c.sndNxt += n
		if c.sndNxt > c.maxSent {
			c.maxSent = c.sndNxt
		}
		if !c.timerArmed {
			c.armTimer(c.rto)
		}
	}

	if c.finQueued && !c.finSent && c.sndNxt == c.sndEnd {
		c.finSent = true
		c.finSeq = c.sndEnd
		s := c.seg(FlagFIN|FlagACK, c.finSeq)
		if c.finSeq < c.maxSent {
			s.Retrans = true
		}
		c.transmit(s)
		c.sndNxt = c.sndEnd + 1
		if c.sndNxt > c.maxSent {
			c.maxSent = c.sndNxt
		}
		if !c.timerArmed {
			c.armTimer(c.rto)
		}
	}
}

// abort force-closes the connection after repeated unanswered
// retransmissions. OnClose fires (once) so the application learns the
// stream ended.
func (c *Conn) abort() {
	if c.st == stateClosed {
		return
	}
	c.st = stateClosed
	c.cancelTimer()
	c.releaseOOO()
	c.ep.remove(c)
	if !c.closedUp {
		c.closedUp = true
		if c.OnClose != nil {
			c.OnClose()
		}
	}
	// Retire strictly after OnClose: the callback may open a new
	// connection, which must not be handed this very object while the
	// abort frame still references it.
	c.ep.retire(c)
}

// releaseOOO drops any still-held out-of-order segments on connection
// teardown, so a closed connection pins none of the sender's bytes.
func (c *Conn) releaseOOO() {
	clear(c.ooo)
	c.ooo = c.ooo[:0]
}

// maybeFinish tears the connection down once both directions are done:
// our FIN acknowledged and the peer's FIN received (or we never sent one
// but the peer closed and we have closed too).
func (c *Conn) maybeFinish() {
	if c.st == stateClosed {
		return
	}
	if c.finSent && c.finAcked && c.closedUp {
		c.st = stateClosed
		c.cancelTimer()
		c.releaseOOO()
		c.ep.remove(c)
		c.ep.retire(c)
	}
}
