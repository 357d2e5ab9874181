package tcpsim

import (
	"fmt"

	"fesplit/internal/simnet"
)

// connKey demultiplexes segments to connections.
type connKey struct {
	remote     simnet.HostID
	remotePort uint16
	localPort  uint16
}

// Listener accepts incoming connections on a port.
type Listener struct {
	ep     *Endpoint
	port   uint16
	accept func(*Conn)
	closed bool
}

// Close stops accepting new connections; established ones are unaffected.
func (l *Listener) Close() {
	l.closed = true
	delete(l.ep.listeners, l.port)
}

// Port returns the listening port.
func (l *Listener) Port() uint16 { return l.port }

// Endpoint is a host's TCP stack: it owns every connection and listener
// of that host and demultiplexes incoming segments. Create one per
// simulated host with NewEndpoint; it attaches itself to the network.
type Endpoint struct {
	host      simnet.HostID
	net       *simnet.Network
	cfg       Config
	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16

	// demuxGen is bumped whenever a connection leaves the demux table.
	// The fast lane resolves destination connections ahead of delivery
	// and caches the generation; a mismatch at dispatch or send time
	// means some connection closed in between, so cached resolutions
	// are re-derived (or the delivery takes the full Deliver demux,
	// which treats a vanished connection exactly as the packet path
	// does: the segment is dropped).
	demuxGen uint64

	// free is the connection free list (Config.RecycleConns): closed
	// connection objects whose scheduled timer events have all drained,
	// ready for reinit by the next Dial or accept. Ownership rule: an
	// object is on the free list XOR reachable as a live connection —
	// retire/pushFree are the only producers, newConn the only
	// consumer.
	free []*Conn

	// Tap, when non-nil, observes every segment this endpoint sends or
	// receives, with its payload bytes (nil when content-free; the
	// sender's memory, never to be modified) and its SACK blocks (valid
	// only during the call). Used for packet capture.
	Tap func(ev TapEvent, data []byte, sack []SACKBlock)

	// Metrics, when non-nil, mirrors stack activity (segments,
	// retransmissions, RTOs, cwnd samples) into the observability
	// registry. Share one bundle across endpoints to aggregate
	// fleet-wide.
	Metrics *StackMetrics
}

// NewEndpoint creates a TCP stack for host and attaches it to n.
func NewEndpoint(n *simnet.Network, host simnet.HostID, cfg Config) *Endpoint {
	ep := &Endpoint{
		host:      host,
		net:       n,
		cfg:       cfg.withDefaults(),
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  40000,
	}
	n.Attach(host, ep)
	return ep
}

// Sim returns the underlying simulator.
func (e *Endpoint) Sim() *simnet.Sim { return e.net.Sim() }

// Listen starts accepting connections on port, invoking accept for each
// new connection once the handshake's final ACK arrives.
func (e *Endpoint) Listen(port uint16, accept func(*Conn)) (*Listener, error) {
	if _, busy := e.listeners[port]; busy {
		return nil, fmt.Errorf("tcpsim: %s port %d already listening", e.host, port)
	}
	l := &Listener{ep: e, port: port, accept: accept}
	e.listeners[port] = l
	return l, nil
}

// Dial opens a connection to remote:port. The returned Conn is in
// SYN_SENT; its OnConnect callback (set it before the simulator runs the
// handshake) fires when the SYN-ACK arrives.
func (e *Endpoint) Dial(remote simnet.HostID, port uint16) *Conn {
	local := e.allocPort()
	c := newConn(e, remote, port, local, false)
	e.conns[connKey{remote, port, local}] = c
	if m := e.Metrics; m != nil {
		m.ConnsOpened.Inc()
	}
	c.sendSYN()
	return c
}

func (e *Endpoint) allocPort() uint16 {
	for {
		p := e.nextPort
		e.nextPort++
		if e.nextPort < 40000 {
			e.nextPort = 40000
		}
		if _, taken := e.listeners[p]; !taken {
			return p
		}
	}
}

// wireSeg is a segment as a heap packet carries it: boxed into
// Packet.Payload with its bytes and SACK blocks. Only a lane delivery
// to a host whose handler is not an *Endpoint builds one.
type wireSeg struct {
	Segment
	data []byte
	sack [3]SACKBlock
}

func box(seg Segment, data []byte, sack []SACKBlock) *wireSeg {
	w := &wireSeg{Segment: seg, data: data}
	copy(w.sack[:], sack)
	return w
}

// Deliver implements simnet.Handler: demultiplex to a connection or a
// listener.
func (e *Endpoint) Deliver(pkt simnet.Packet) {
	w, ok := pkt.Payload.(*wireSeg)
	if !ok {
		return // not TCP; ignore
	}
	e.deliver(pkt.From, w.Segment, w.data, w.sack[:w.NSACK])
}

// deliver is Deliver for an unboxed segment from host from: the tap,
// the metrics, then the demux.
func (e *Endpoint) deliver(from simnet.HostID, seg Segment, data []byte, sack []SACKBlock) {
	if e.Tap != nil {
		e.Tap(TapEvent{Time: e.Sim().Now(), Dir: DirRecv, Remote: string(from), Segment: seg}, data, sack)
	}
	if m := e.Metrics; m != nil {
		m.SegsRecv.Inc()
	}
	key := connKey{from, seg.SrcPort, seg.DstPort}
	if c, ok := e.conns[key]; ok {
		c.handle(seg, data, sack)
		return
	}
	// New connection? Only a SYN to a listening port is acceptable.
	if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
		if l, ok := e.listeners[seg.DstPort]; ok && !l.closed {
			c := newConn(e, from, seg.SrcPort, seg.DstPort, true)
			c.acceptFn = l.accept
			e.conns[key] = c
			if m := e.Metrics; m != nil {
				m.ConnsOpened.Inc()
			}
			c.handle(seg, data, sack)
		}
	}
	// Anything else (stray segment to a closed conn) is dropped; real
	// stacks send RST, which nothing in this simulation would consume.
}

// remove drops a connection from the demux table.
func (e *Endpoint) remove(c *Conn) {
	e.demuxGen++
	delete(e.conns, connKey{c.remote, c.remotePort, c.localPort})
}

// retire offers a closed, demux-removed connection to the free list.
// If scheduled RTO check events still reference the object it is only
// marked; the last check to pop completes the recycle (timerCheck).
// Callers must invoke retire after every other use of the object in
// the current call stack — in particular after OnClose, which may open
// a new connection synchronously.
func (e *Endpoint) retire(c *Conn) {
	if !e.cfg.RecycleConns || c.retired {
		return
	}
	if len(c.timerEvs) > 0 {
		c.retired = true
		return
	}
	e.pushFree(c)
}

// pushFree places a fully drained retired connection on the free list.
func (e *Endpoint) pushFree(c *Conn) {
	c.retired = false
	e.free = append(e.free, c)
}

// OpenConns returns the number of tracked connections (testing aid).
func (e *Endpoint) OpenConns() int { return len(e.conns) }

// FreeConns returns the size of the connection free list (testing aid).
func (e *Endpoint) FreeConns() int { return len(e.free) }
