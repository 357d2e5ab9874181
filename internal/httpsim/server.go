package httpsim

import (
	"strconv"
	"strings"

	"fesplit/internal/tcpsim"
)

// HandlerFunc serves one request. The handler may hold the
// ResponseWriter and keep writing in later virtual-time events (the FE
// server does exactly that: static prefix now, dynamic portion when the
// BE fetch returns) until it calls End. The Request is valid during the
// call only: copy what a later event needs.
type HandlerFunc func(w *ResponseWriter, r *Request)

// Server serves HTTP on a tcpsim endpoint port.
type Server struct {
	handler HandlerFunc
}

// NewServer starts an HTTP server on ep:port.
func NewServer(ep *tcpsim.Endpoint, port uint16, handler HandlerFunc) (*Server, error) {
	s := &Server{handler: handler}
	if _, err := ep.Listen(port, s.accept); err != nil {
		return nil, err
	}
	return s, nil
}

// serverConn is the server side of one connection object: its request
// parser, the writer its responses reuse and its callbacks, bound to the
// tcpsim.Conn object (Conn.App) once. On a recycling endpoint every
// later connection the object carries is served by the same serverConn.
type serverConn struct {
	s       *Server
	conn    *tcpsim.Conn
	parser  requestParser
	w       *ResponseWriter // reused for the next response once ended
	onData  func([]byte)
	onClose func()
}

// accept wires one connection. Multiple sequential requests per
// connection are supported (keep-alive); responses must complete in
// request order — PersistentConn enforces one request in flight, and
// handlers must not interleave writes across requests on one
// connection.
func (s *Server) accept(conn *tcpsim.Conn) {
	sc, _ := conn.App.(*serverConn)
	if sc == nil {
		sc = &serverConn{}
		sc.onData, sc.onClose = sc.data, sc.close
		conn.App = sc
	}
	sc.s, sc.conn = s, conn
	sc.parser.carry = sc.parser.carry[:0]
	conn.OnData, conn.OnClose = sc.onData, sc.onClose
}

func (sc *serverConn) data(b []byte) {
	reqs, err := sc.parser.feed(b)
	if err != nil {
		sc.conn.Close() // malformed request: drop the connection
		return
	}
	for i := range reqs {
		sc.s.handler(sc.writer(), &reqs[i])
	}
}

// close answers the peer's FIN: we close once pending writes drain
// (tcpsim FIN is queued behind data).
func (sc *serverConn) close() { sc.conn.Close() }

// writer returns the writer of the next response: the connection
// object's own once its last response has ended, else a fresh one — a
// handler may still hold an unended writer, even one of the object's
// previous connection.
func (sc *serverConn) writer() *ResponseWriter {
	w := sc.w
	if w == nil || !w.ended {
		w = new(ResponseWriter)
		sc.w = w
	}
	*w = ResponseWriter{conn: sc.conn, incarnation: sc.conn.Incarnation()}
	return w
}

// ResponseWriter streams a response onto the connection.
//
// Two usage patterns:
//
//	w.WriteHeader(200, h)   // h may carry Content-Length
//	w.Write(part1)          // now
//	w.Write(part2)          // later, from another event
//	w.End()                 // close-framed: half-closes the connection;
//	                        // CL-framed: no-op once the length is written
//
// End hands the writer back to the server, which reuses it for the
// connection's next response: nothing may use it afterwards. A writer
// kept while its connection ends writes nothing: on a recycling
// endpoint the connection object may already carry another connection,
// which the writer's incarnation tells apart (tcpsim.Conn.Incarnation).
type ResponseWriter struct {
	conn        *tcpsim.Conn
	incarnation uint64 // conn's incarnation when the response began
	wroteHeader bool
	closeFramed bool
	chunked     bool
	ended       bool
}

// live reports whether the writer's connection object still carries the
// connection the response began on.
func (w *ResponseWriter) live() bool { return w.conn.Incarnation() == w.incarnation }

// WriteHeader sends the status line and headers. Framing follows the
// headers: Transfer-Encoding: chunked streams chunks and End() writes
// the terminator (the connection stays open — keep-alive); a
// Content-Length header counts bytes; neither means close-framing, and
// End() half-closes the connection. Calling WriteHeader twice panics (a
// handler bug). hdr is rendered before WriteHeader returns; nothing keeps
// it. A status this package names without header lines sends a shared
// head, rendered once.
func (w *ResponseWriter) WriteHeader(status int, hdr Header) {
	_, hasCL := hdr[contentLength]
	w.begin(hasCL, strings.EqualFold(hdr[transferEncoding], "chunked"))
	if w.live() {
		w.conn.Send(marshalResponseHeader(status, hdr, -1))
	}
}

// WriteHeaderLength is WriteHeader with Content-Length: n framing and
// hdr's other lines (nil for none), rendered without building a map.
func (w *ResponseWriter) WriteHeaderLength(status, n int, hdr Header) {
	w.begin(true, false)
	if w.live() {
		w.conn.Send(marshalResponseHeader(status, hdr, n))
	}
}

// begin records the response's framing as its head is written.
func (w *ResponseWriter) begin(hasCL, chunked bool) {
	if w.wroteHeader {
		panic("httpsim: WriteHeader called twice")
	}
	w.wroteHeader = true
	w.chunked = chunked
	w.closeFramed = !hasCL && !chunked
}

// Write streams body bytes (chunk-framed when the response is chunked).
// It sends a default 200 header first if the handler has not called
// WriteHeader. The connection queues b itself (tcpsim.Conn.Send does not
// copy), so b must not be modified afterwards; every caller passes an
// immutable or fresh slice — the FE's static part, a fresh dynamic body,
// the BE result cache, a gzip member, a completed Response.Body its
// parser never touches again.
func (w *ResponseWriter) Write(b []byte) {
	if !w.wroteHeader {
		w.WriteHeader(200, nil)
	}
	if !w.live() {
		return
	}
	if w.chunked {
		if len(b) == 0 {
			return
		}
		w.conn.Send(ChunkEncode(b))
		return
	}
	w.conn.Send(b)
}

// WriteBlank streams n content-free body bytes: they are framed, timed
// and counted exactly as Write of n bytes would be, but never built
// (see tcpsim.Conn.SendBlank). Chunk framing stays real.
func (w *ResponseWriter) WriteBlank(n int) {
	if !w.wroteHeader {
		w.WriteHeader(200, nil)
	}
	if n <= 0 || !w.live() {
		return
	}
	if w.chunked {
		w.conn.SendBlank(append(strconv.AppendInt(nil, int64(n), 16), "\r\n"...), n, crlf)
		return
	}
	w.conn.SendBlank(nil, n, nil)
}

// End completes the response: terminator chunk for chunked framing
// (connection stays open), half-close for close-framing, no-op for
// Content-Length framing. The writer goes back to the server.
func (w *ResponseWriter) End() {
	if !w.wroteHeader {
		w.WriteHeader(200, nil)
	}
	w.ended = true
	if !w.live() {
		return
	}
	if w.chunked {
		w.conn.Send(ChunkTerminator())
		return
	}
	if w.closeFramed {
		w.conn.Close()
	}
}

// ChunkedHeader builds a header declaring chunked transfer encoding.
func ChunkedHeader() Header {
	return Header{transferEncoding: "chunked"}
}

// Conn exposes the underlying transport connection (for metrics). On a
// recycling endpoint it is the response's connection only while the
// response is in progress.
func (w *ResponseWriter) Conn() *tcpsim.Conn { return w.conn }

// ContentLengthHeader builds a header with the given Content-Length.
// WriteHeaderLength frames a response by length without one.
func ContentLengthHeader(n int) Header {
	return Header{contentLength: strconv.Itoa(n)}
}
