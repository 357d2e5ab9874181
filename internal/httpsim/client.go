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
// connection.
func Get(ep *tcpsim.Endpoint, host simnet.HostID, port uint16, req *Request, cb ResponseCallbacks) *tcpsim.Conn {
	conn := ep.Dial(host, port)
	parser := &responseParser{
		countOnly:   cb.CountOnly,
		onHeader:    cb.OnHeader,
		onBodyChunk: cb.OnBody,
	}
	done := false
	parser.onDone = func(r *Response) {
		done = true
		if cb.OnDone != nil {
			cb.OnDone(r)
		}
	}
	conn.OnConnect = func() { conn.Send(req.Marshal()) }
	conn.OnData = func(b []byte) {
		if err := parser.feed(b); err != nil && cb.OnError != nil {
			cb.OnError(err)
		}
	}
	conn.OnBlank = func(n int) {
		if err := parser.feedBlank(n); err != nil && cb.OnError != nil {
			cb.OnError(err)
		}
	}
	conn.OnClose = func() {
		parser.close()
		conn.Close()
		if !done && cb.OnError != nil {
			cb.OnError(errTruncated)
		}
	}
	return conn
}

var errTruncated = &parseError{"connection closed before response completed"}

// PersistentConn is a keep-alive client connection that serializes
// requests: one outstanding request at a time, FIFO. Responses must be
// Content-Length framed. The FE server holds one of these per BE data
// center — the paper's persistent split-TCP back-end connection.
type PersistentConn struct {
	ep     *tcpsim.Endpoint
	conn   *tcpsim.Conn
	parser *responseParser
	queue  []pendingReq
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
	p := &PersistentConn{ep: ep}
	p.conn = ep.Dial(host, port)
	p.parser = &responseParser{}
	p.conn.OnConnect = func() {
		p.ready = true
		p.pump()
	}
	p.conn.OnData = func(b []byte) {
		if err := p.parser.feed(b); err != nil {
			p.fail(err)
		}
	}
	p.conn.OnBlank = func(n int) {
		if err := p.parser.feedBlank(n); err != nil {
			p.fail(err)
		}
	}
	p.conn.OnClose = func() {
		p.closed = true
		p.conn.Close()
		p.fail(errTruncated)
	}
	return p
}

// Do enqueues a request. cb.OnDone (or OnError) fires when its response
// completes. Requests are answered strictly in order.
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
	if !p.ready || p.inFly || p.closed || len(p.queue) == 0 {
		return
	}
	next := p.queue[0]
	p.queue = p.queue[1:]
	p.inFly = true
	cb := next.cb
	p.cur = cb
	p.parser.countOnly = cb.CountOnly
	p.parser.onHeader = cb.OnHeader
	p.parser.onBodyChunk = cb.OnBody
	p.parser.onDone = func(r *Response) {
		p.inFly = false
		if cb.OnDone != nil {
			cb.OnDone(r)
		}
		p.pump()
	}
	p.conn.Send(next.req.Marshal())
}

// fail reports an error to the in-flight and queued requests.
func (p *PersistentConn) fail(err error) {
	if p.inFly {
		p.inFly = false
		p.parser.onDone = nil
		if p.cur.OnError != nil {
			p.cur.OnError(err)
		}
		p.cur = ResponseCallbacks{}
	}
	queued := p.queue
	p.queue = nil
	for _, q := range queued {
		if q.cb.OnError != nil {
			q.cb.OnError(err)
		}
	}
}

// Close shuts the connection down after pending data drains.
func (p *PersistentConn) Close() {
	p.closed = true
	p.conn.Close()
}

// QueueLen returns the number of requests not yet sent.
func (p *PersistentConn) QueueLen() int { return len(p.queue) }
