package httpsim

import (
	"fmt"
	"strconv"
	"strings"

	"fesplit/internal/tcpsim"
)

// HandlerFunc serves one request. The handler may hold the
// ResponseWriter and keep writing in later virtual-time events (the FE
// server does exactly that: static prefix now, dynamic portion when the
// BE fetch returns).
type HandlerFunc func(w *ResponseWriter, r *Request)

// Server serves HTTP on a tcpsim endpoint port.
type Server struct {
	ep      *tcpsim.Endpoint
	handler HandlerFunc
	lis     *tcpsim.Listener
}

// NewServer starts an HTTP server on ep:port.
func NewServer(ep *tcpsim.Endpoint, port uint16, handler HandlerFunc) (*Server, error) {
	s := &Server{ep: ep, handler: handler}
	lis, err := ep.Listen(port, s.accept)
	if err != nil {
		return nil, err
	}
	s.lis = lis
	return s, nil
}

// accept wires one connection. Multiple sequential requests per
// connection are supported (keep-alive); responses must complete in
// request order — PersistentConn enforces one request in flight, and
// handlers must not interleave writes across requests on one
// connection.
func (s *Server) accept(conn *tcpsim.Conn) {
	parser := &requestParser{}
	conn.OnData = func(b []byte) {
		reqs, err := parser.feed(b)
		if err != nil {
			conn.Close() // malformed request: drop the connection
			return
		}
		for _, req := range reqs {
			w := &ResponseWriter{conn: conn}
			s.handler(w, req)
		}
	}
	conn.OnClose = func() {
		// Peer finished sending; we close once pending writes drain
		// (tcpsim FIN is queued behind data).
		conn.Close()
	}
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
type ResponseWriter struct {
	conn        *tcpsim.Conn
	wroteHeader bool
	closeFramed bool
	chunked     bool
}

// WriteHeader sends the status line and headers. Framing follows the
// headers: Transfer-Encoding: chunked streams chunks and End() writes
// the terminator (the connection stays open — keep-alive); a
// Content-Length header counts bytes; neither means close-framing, and
// End() half-closes the connection. Calling WriteHeader twice panics (a
// handler bug).
func (w *ResponseWriter) WriteHeader(status int, hdr Header) {
	if w.wroteHeader {
		panic("httpsim: WriteHeader called twice")
	}
	w.wroteHeader = true
	h := hdr.clone()
	_, hasCL := h["Content-Length"]
	w.chunked = strings.EqualFold(h["Transfer-Encoding"], "chunked")
	w.closeFramed = !hasCL && !w.chunked
	w.conn.Send(marshalResponseHeader(status, h))
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
		w.WriteHeader(200, Header{})
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
		w.WriteHeader(200, Header{})
	}
	if n <= 0 {
		return
	}
	if w.chunked {
		w.conn.SendBlank(append(strconv.AppendInt(nil, int64(n), 16), "\r\n"...), n, []byte("\r\n"))
		return
	}
	w.conn.SendBlank(nil, n, nil)
}

// End completes the response: terminator chunk for chunked framing
// (connection stays open), half-close for close-framing, no-op for
// Content-Length framing.
func (w *ResponseWriter) End() {
	if !w.wroteHeader {
		w.WriteHeader(200, Header{})
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
	return Header{"Transfer-Encoding": "chunked"}
}

// Conn exposes the underlying transport connection (for metrics).
func (w *ResponseWriter) Conn() *tcpsim.Conn { return w.conn }

// ContentLengthHeader builds a header with the given Content-Length.
func ContentLengthHeader(n int) Header {
	return Header{"Content-Length": fmt.Sprint(n)}
}
