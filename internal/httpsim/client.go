package httpsim

import (
	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
)

// ResponseCallbacks observe a response as it streams in. Any field may
// be nil.
type ResponseCallbacks struct {
	// CountOnly asks for the body to be measured, not retained:
	// Response.BodyLen is set, Response.Body stays nil, and nothing
	// proportional to the body is allocated.
	CountOnly bool
	// OnHeader fires when the response header completes.
	OnHeader func(*Response)
	// OnBody fires for each body fragment that arrives as bytes, in
	// order (content-free runs are only counted). The slice must not be
	// modified. While the body is being retained it aliases the
	// accumulating Response.Body and stays valid after the callback
	// returns; otherwise it is valid only during the callback.
	OnBody func([]byte)
	// OnDone fires when the response is complete, with the full body
	// (see Response.Body for when it is retained).
	OnDone func(*Response)
	// OnError fires if the connection dies before the response
	// completes (close-framed responses terminated by abort still
	// complete via OnDone).
	OnError func(error)
}

// Get opens a fresh connection to host:port, issues one GET and
// consumes the response; the connection closes afterwards. This mirrors
// the paper's query emulator: every search query uses a new TCP
// connection. req is rendered before Get returns; nothing keeps it. The
// Response the callbacks see is the exchange's own (see Response).
func Get(ep *tcpsim.Endpoint, host simnet.HostID, port uint16, req *Request, cb ResponseCallbacks) *tcpsim.Conn {
	conn := ep.Dial(host, port)
	x, _ := conn.App.(*exchange)
	if x == nil {
		x = &exchange{}
		x.onConnect, x.onData, x.onBlank, x.onClose, x.onDone = x.connect, x.data, x.blank, x.close, x.done
		conn.App = x
	}
	x.conn, x.req, x.cb, x.finished = conn, req.Marshal(), cb, false
	x.parser = responseParser{
		carry:       x.parser.carry[:0],
		countOnly:   cb.CountOnly,
		onHeader:    cb.OnHeader,
		onBodyChunk: cb.OnBody,
		onDone:      x.onDone,
	}
	conn.OnConnect, conn.OnData, conn.OnBlank, conn.OnClose = x.onConnect, x.onData, x.onBlank, x.onClose
	return conn
}

// exchange is one Get: the request, the response parser and the
// callbacks, bound to the tcpsim.Conn object (Conn.App) once. On a
// recycling endpoint each later Get on the object reuses it, so a query
// allocates only its request bytes.
type exchange struct {
	conn     *tcpsim.Conn
	req      []byte
	parser   responseParser
	cb       ResponseCallbacks
	finished bool // the response completed

	onConnect, onClose func()
	onData             func([]byte)
	onBlank            func(int)
	onDone             func(*Response)
}

func (x *exchange) connect() { x.conn.Send(x.req) }

func (x *exchange) data(b []byte) {
	if err := x.parser.feed(b); err != nil && x.cb.OnError != nil {
		x.cb.OnError(err)
	}
}

func (x *exchange) blank(n int) {
	if err := x.parser.feedBlank(n); err != nil && x.cb.OnError != nil {
		x.cb.OnError(err)
	}
}

func (x *exchange) done(r *Response) {
	x.finished = true
	if x.cb.OnDone != nil {
		x.cb.OnDone(r)
	}
}

// close ends the exchange at the peer's FIN, its last callback; it then
// drops the request and the caller's callbacks.
func (x *exchange) close() {
	x.parser.close()
	x.conn.Close()
	if !x.finished && x.cb.OnError != nil {
		x.cb.OnError(errTruncated)
	}
	x.req, x.cb = nil, ResponseCallbacks{}
	x.parser.onHeader, x.parser.onBodyChunk = nil, nil
}

var errTruncated = &parseError{"connection closed before response completed"}

// PersistentConn is a keep-alive client connection that serializes
// requests: one outstanding request at a time, FIFO. Responses must be
// Content-Length framed. The FE server holds one of these per BE data
// center — the paper's persistent split-TCP back-end connection.
type PersistentConn struct {
	conn   *tcpsim.Conn
	host   simnet.HostID
	parser responseParser
	queue  []pendingReq // queue[head:] waits; emptied, it restarts at 0
	head   int
	cur    ResponseCallbacks // callbacks of the in-flight request
	inFly  bool
	ready  bool
	closed bool
}

type pendingReq struct {
	req *Request
	cb  ResponseCallbacks
}

// NewPersistentConn dials host:port and returns a connection that can
// carry any number of sequential requests.
func NewPersistentConn(ep *tcpsim.Endpoint, host simnet.HostID, port uint16) *PersistentConn {
	p := &PersistentConn{conn: ep.Dial(host, port), host: host}
	p.parser.onDone = p.done
	p.conn.OnConnect, p.conn.OnData, p.conn.OnBlank, p.conn.OnClose = p.connect, p.data, p.blank, p.peerClosed
	return p
}

func (p *PersistentConn) connect() {
	p.ready = true
	p.pump()
}

func (p *PersistentConn) data(b []byte) {
	if err := p.parser.feed(b); err != nil {
		p.fail(err)
	}
}

func (p *PersistentConn) blank(n int) {
	if err := p.parser.feedBlank(n); err != nil {
		p.fail(err)
	}
}

func (p *PersistentConn) peerClosed() {
	p.closed = true
	p.conn.Close()
	p.fail(errTruncated)
}

// Do enqueues a request. cb.OnDone (or OnError) fires when its response
// completes. Requests are answered strictly in order. req is rendered
// when it is sent; keep it unchanged until then.
func (p *PersistentConn) Do(req *Request, cb ResponseCallbacks) {
	if p.closed {
		if cb.OnError != nil {
			cb.OnError(errTruncated)
		}
		return
	}
	p.queue = append(p.queue, pendingReq{req, cb})
	p.pump()
}

// pump starts the next queued request if the line is idle.
func (p *PersistentConn) pump() {
	if !p.ready || p.inFly || p.closed || p.head == len(p.queue) {
		return
	}
	next := p.queue[p.head]
	p.queue[p.head] = pendingReq{}
	if p.head++; p.head == len(p.queue) {
		p.queue, p.head = p.queue[:0], 0
	}
	p.inFly = true
	p.cur = next.cb
	p.parser.countOnly = next.cb.CountOnly
	p.parser.onHeader = next.cb.OnHeader
	p.parser.onBodyChunk = next.cb.OnBody
	p.conn.Send(next.req.Marshal())
}

// done completes the in-flight request; a response with none in flight
// (after fail) has no one to tell.
func (p *PersistentConn) done(r *Response) {
	if !p.inFly {
		return
	}
	p.inFly = false
	cb := p.cur
	p.cur = ResponseCallbacks{}
	if cb.OnDone != nil {
		cb.OnDone(r)
	}
	p.pump()
}

// fail reports an error to the in-flight and queued requests.
func (p *PersistentConn) fail(err error) {
	if p.inFly {
		p.inFly = false
		cb := p.cur
		p.cur = ResponseCallbacks{}
		if cb.OnError != nil {
			cb.OnError(err)
		}
	}
	queued := p.queue[p.head:]
	p.queue, p.head = nil, 0
	for _, q := range queued {
		if q.cb.OnError != nil {
			q.cb.OnError(err)
		}
	}
}

// Close shuts the connection down after pending data drains. Once the
// connection is closed, by Close or by the peer, it is a no-op: on a
// recycling endpoint the object may already carry another connection.
func (p *PersistentConn) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.conn.Close()
}

// Host returns the host the connection was dialed to.
func (p *PersistentConn) Host() simnet.HostID { return p.host }
