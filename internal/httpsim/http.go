// Package httpsim implements a minimal HTTP/1.1 layer over tcpsim: GET
// requests, streamed responses with either Content-Length or
// connection-close framing, and persistent client connections.
//
// Two framings matter for the paper's infrastructure:
//
//   - Client ↔ FE responses use connection-close framing: the FE flushes
//     the cached static prefix immediately after the GET and appends the
//     dynamically generated portion when the BE fetch completes, then
//     closes. The last packet before FIN is the paper's t_e.
//   - FE ↔ BE responses use Content-Length framing on a persistent
//     connection, so the FE's pre-warmed back-end connection survives
//     across queries (the TCP-splitting benefit the paper studies).
package httpsim

import (
	"bytes"
	"slices"
	"strconv"
)

// Header is an ordered-insensitive header map with canonicalized-enough
// keys (exact-match; producers and consumers agree on casing). A parsed
// head keeps only the lines no field holds: a request's Host goes to
// Request.Host, a response's framing (Content-Length,
// Transfer-Encoding) to the parser, so a head without other lines has a
// nil Header; readers index it.
type Header map[string]string

// Framing header names.
const (
	contentLength    = "Content-Length"
	transferEncoding = "Transfer-Encoding"
)

// Request is an HTTP request. Only bodyless methods (GET) are supported;
// search queries carry their keywords in the URL, as the real services
// do.
type Request struct {
	Method string
	Path   string
	Host   string
	Header Header
}

// NewGet builds a GET request for path against the given virtual host,
// with no header lines (set Header to add some).
func NewGet(host, path string) *Request {
	return &Request{Method: "GET", Path: path, Host: host}
}

// Marshal renders the request wire format.
func (r *Request) Marshal() []byte {
	method := r.Method
	if method == "" {
		method = "GET"
	}
	path := r.Path
	if path == "" {
		path = "/"
	}
	return marshalHead(r.Header, -1, method, " ", path, " HTTP/1.1\r\nHost: ", r.Host, "\r\n")
}

// Response is a fully received HTTP response. The parser that reads a
// connection's responses owns it and reuses it for the next one: a
// callback that keeps anything past the connection's next response
// copies it (Body itself is never reused).
type Response struct {
	Status int
	Header Header
	// BodyLen is the body length in bytes; always set.
	BodyLen int
	// Body holds the body bytes. It is nil when the caller asked to
	// count only (ResponseCallbacks.CountOnly) or when any part of the
	// body arrived content-free (tcpsim.Conn.SendBlank): a body is
	// retained whole or not at all.
	Body []byte
}

// marshalHead renders a head into one exactly sized slice: the
// concatenated parts (the first line and its CRLF), the header lines in
// key order — h's, and Content-Length: cl when cl ≥ 0, which replaces
// any in h — and the blank line.
func marshalHead(h Header, cl int, parts ...string) []byte {
	n := len("\r\n")
	for _, s := range parts {
		n += len(s)
	}
	var num [20]byte
	var clv []byte
	keys := make([]string, 0, 4)
	if cl >= 0 {
		clv = strconv.AppendInt(num[:0], int64(cl), 10)
		keys = append(keys, contentLength)
		n += len(contentLength) + len(": \r\n") + len(clv)
	}
	for k, v := range h {
		if cl >= 0 && k == contentLength {
			continue
		}
		keys = append(keys, k)
		n += len(k) + len(": \r\n") + len(v)
	}
	if len(keys) > 1 {
		slices.Sort(keys)
	}
	b := make([]byte, 0, n)
	for _, s := range parts {
		b = append(b, s...)
	}
	for _, k := range keys {
		b = append(append(b, k...), ": "...)
		if cl >= 0 && k == contentLength {
			b = append(b, clv...)
		} else {
			b = append(b, h[k]...)
		}
		b = append(b, "\r\n"...)
	}
	return append(b, "\r\n"...)
}

// marshalResponseHeader renders a response status line plus headers:
// h's, and Content-Length: cl when cl ≥ 0. A bare 200 — the FE's
// close-framed head, one per query — is the shared slice head200, which
// like every slice a connection queues is never modified.
func marshalResponseHeader(status int, h Header, cl int) []byte {
	if status == 200 && len(h) == 0 && cl < 0 {
		return head200
	}
	var num [20]byte
	code := strconv.AppendInt(num[:0], int64(status), 10)
	return marshalHead(h, cl, "HTTP/1.1 ", string(code), " ", statusText(status), "\r\n")
}

var head200 = []byte("HTTP/1.1 200 OK\r\n\r\n")

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Status"
	}
}

// --- incremental parsing ---

// parseError reports malformed wire data.
type parseError struct{ msg string }

func (e *parseError) Error() string { return "httpsim: " + e.msg }

// headEnd terminates a request or response head.
var headEnd = []byte("\r\n\r\n")

// Byte strings the head parsers cut on.
var (
	crlf         = []byte("\r\n")
	http1        = []byte("HTTP/1.")
	chunkedToken = []byte("chunked")
)

// requestParser accumulates stream bytes and emits complete requests.
type requestParser struct {
	// carry stages an incomplete head, or what followed a malformed one;
	// a head that arrives whole is parsed from the delivered slice.
	carry []byte
	reqs  []Request // backs feed's result
	// host is the last Host parsed: a connection's requests name one
	// virtual host, so it is converted once and shared.
	host string
}

// feed appends stream data and returns any complete requests parsed. The
// returned slice and its requests are valid until the next feed.
func (p *requestParser) feed(data []byte) ([]Request, error) {
	if len(p.carry) > 0 {
		p.carry = append(p.carry, data...)
		data = p.carry
	}
	p.reqs = p.reqs[:0]
	var err error
	for idx := bytes.Index(data, headEnd); idx >= 0 && err == nil; idx = bytes.Index(data, headEnd) {
		var req Request
		if req, err = p.parseHead(data[:idx]); err == nil {
			p.reqs = append(p.reqs, req)
		}
		data = data[idx+len(headEnd):]
	}
	p.carry = append(p.carry[:0], data...)
	return p.reqs, err
}

// parseHead parses one request head. What the request keeps is copied
// out of head: the path, a method other than GET, a new Host and any
// other header line.
func (p *requestParser) parseHead(head []byte) (Request, error) {
	line, rest, more := bytes.Cut(head, crlf)
	method, target, ok := bytes.Cut(line, []byte(" "))
	path, proto, ok2 := bytes.Cut(target, []byte(" "))
	if !ok || !ok2 || !bytes.HasPrefix(proto, http1) {
		return Request{}, &parseError{"bad request line: " + string(line)}
	}
	req := Request{Method: "GET", Path: string(path)}
	if string(method) != req.Method {
		req.Method = string(method)
	}
	for more {
		var k, v []byte
		if k, v, rest, more, ok = cutHeaderLine(rest); !ok {
			return Request{}, &parseError{"bad header line: " + string(k)}
		}
		if string(k) != "Host" {
			req.Header = setHeader(req.Header, k, v)
			continue
		}
		if string(v) != p.host {
			p.host = string(v)
		}
		req.Host = p.host
	}
	return req, nil
}

// cutHeaderLine cuts the next header line off rest (more: another line
// follows) and returns its trimmed key and value; ok is false for a
// line without a colon, whose whole text k then holds.
func cutHeaderLine(rest []byte) (k, v, tail []byte, more, ok bool) {
	ln, tail, more := bytes.Cut(rest, crlf)
	k, v, ok = bytes.Cut(ln, []byte(":"))
	if !ok {
		return ln, nil, tail, more, false
	}
	return bytes.TrimSpace(k), bytes.TrimSpace(v), tail, more, true
}

// setHeader adds the line k: v to h, making the map on its first line.
func setHeader(h Header, k, v []byte) Header {
	if h == nil {
		h = make(Header, 1)
	}
	h[string(k)] = string(v)
	return h
}

// responseParser accumulates stream bytes and emits responses. Framing:
// Transfer-Encoding: chunked when declared, Content-Length when present,
// otherwise read-until-close.
type responseParser struct {
	carry      []byte    // framing that cannot be parsed yet (see feed)
	cur        *Response // &resp while a response is in progress, else nil
	resp       Response  // the response in progress or last completed
	need       int       // remaining body bytes (Content-Length framing)
	untilClose bool      // close-framing in progress
	chunked    bool      // chunked framing in progress
	chunkSize  int       // payload size of the current chunk
	chunkLeft  int       // remaining bytes of the current chunk (+CRLF)
	lastCRLF   int       // bytes of the chunked terminator's final CRLF still due
	// countOnly: measure bodies (Response.BodyLen), retain nothing.
	// dropped: the current body met a content-free run and retains
	// nothing either (Response.Body is all or nothing).
	countOnly bool
	dropped   bool

	// onHeader fires when a response header completes; onBodyChunk for
	// each body fragment; onDone when the response completes.
	onHeader    func(*Response)
	onBodyChunk func([]byte)
	onDone      func(*Response)
}

// emitBody appends data to the current response's body and reports the
// freshly appended region to onBodyChunk. The callback slice aliases
// Response.Body — Body only ever grows, so its bytes stay stable, but
// callees must treat it as read-only (it is capacity-capped so an
// append cannot clobber later body bytes). A fragment costs no
// allocation of its own.
func (p *responseParser) emitBody(data []byte) {
	p.cur.BodyLen += len(data)
	if p.countOnly || p.dropped {
		if p.onBodyChunk != nil {
			p.onBodyChunk(data)
		}
		return
	}
	start := len(p.cur.Body)
	p.cur.Body = append(p.cur.Body, data...)
	if p.onBodyChunk != nil {
		end := len(p.cur.Body)
		p.onBodyChunk(p.cur.Body[start:end:end])
	}
}

// feedBlank consumes a run of n content-free stream bytes. Only body
// bytes may be content-free: a run reaching into a status line, a
// header block or chunk framing is malformed.
func (p *responseParser) feedBlank(n int) error {
	switch {
	case p.cur == nil || len(p.carry) > 0:
		return &parseError{"content-free bytes outside a response body"}
	case p.chunked:
		if n > p.chunkLeft-2 {
			return &parseError{"content-free bytes inside chunk framing"}
		}
		p.chunkLeft -= n
	case !p.untilClose:
		if n > p.need {
			return &parseError{"content-free bytes beyond Content-Length"}
		}
		p.need -= n
	}
	p.cur.BodyLen += n
	p.cur.Body, p.dropped = nil, true
	if !p.chunked && !p.untilClose && p.need == 0 {
		p.finish()
	}
	return nil
}

// feed appends stream data, invoking callbacks as parsing progresses.
// Bytes are consumed from the delivered slice itself — body bytes
// dominate stream volume, so nearly no payload byte is copied to be
// parsed — and only what cannot be parsed yet (an incomplete head or
// chunk-size line, or what followed malformed framing) is staged.
func (p *responseParser) feed(data []byte) error {
	if len(p.carry) > 0 {
		p.carry = append(p.carry, data...)
		data = p.carry
	}
	var err error
	more := false // data holds too little to proceed
	for len(data) > 0 && err == nil && !more {
		n := 0
		switch {
		case p.cur == nil:
			idx := bytes.Index(data, headEnd)
			if more = idx < 0; !more {
				n = idx + len(headEnd)
				err = p.begin(data[:idx])
			}
		case p.chunked:
			n, err = p.chunkStep(data)
			more = n == 0
		case p.untilClose:
			// Consume everything; completion happens at close().
			n = len(data)
			p.emitBody(data)
		default:
			n = min(len(data), p.need)
			p.emitBody(data[:n])
			if p.need -= n; p.need == 0 {
				p.finish()
			}
		}
		data = data[n:]
	}
	p.carry = append(p.carry[:0], data...)
	return err
}

// begin parses a response head into p.resp, sets up its body framing
// and completes a response that has no body. The framing lines set the
// framing and go nowhere else; any other line is copied into the
// response's Header.
func (p *responseParser) begin(head []byte) error {
	line, rest, more := bytes.Cut(head, crlf)
	proto, status, ok := bytes.Cut(line, []byte(" "))
	if !ok || !bytes.HasPrefix(proto, http1) {
		return &parseError{"bad status line: " + string(line)}
	}
	status, _, _ = bytes.Cut(status, []byte(" "))
	code, err := strconv.Atoi(string(status))
	if err != nil {
		return &parseError{"bad status code: " + string(status)}
	}
	var h Header
	var cl, te []byte
	hasCL := false
	for more {
		var k, v []byte
		if k, v, rest, more, ok = cutHeaderLine(rest); !ok {
			return &parseError{"bad header line: " + string(k)}
		}
		switch string(k) {
		case contentLength:
			cl, hasCL = v, true
		case transferEncoding:
			te = v
		default:
			h = setHeader(h, k, v)
		}
	}
	p.resp = Response{Status: code, Header: h}
	resp := &p.resp
	p.cur = resp
	switch {
	case bytes.EqualFold(te, chunkedToken):
		p.chunked = true
		p.untilClose = false
	case hasCL:
		n, err := strconv.Atoi(string(cl))
		if err != nil || n < 0 {
			return &parseError{"bad Content-Length: " + string(cl)}
		}
		p.need = n
		p.untilClose = false
		if n > 0 && !p.countOnly {
			// One exact allocation up front: the per-fragment
			// emitBody appends never grow Body.
			resp.Body = make([]byte, 0, n)
		}
	default:
		p.untilClose = true
	}
	if p.onHeader != nil {
		p.onHeader(resp)
	}
	if !p.untilClose && !p.chunked && p.need == 0 {
		p.finish()
	}
	return nil
}

// chunkStep consumes the next piece of chunked framing from data: a
// chunk-size line, chunk payload with its CRLF, or the terminator's final
// CRLF. It returns 0 when data holds too little to proceed.
func (p *responseParser) chunkStep(data []byte) (int, error) {
	switch {
	case p.lastCRLF > 0:
		// The terminator's final CRLF may trail its size line by a
		// segment; the response is complete only once it is consumed,
		// or its bytes would prefix the next response on a keep-alive
		// connection.
		n := min(len(data), p.lastCRLF)
		if p.lastCRLF -= n; p.lastCRLF == 0 {
			p.finish()
		}
		return n, nil
	case p.chunkLeft > 0:
		// Chunk payload plus its trailing CRLF: offsets [0, chunkSize)
		// of the chunk are payload, the final two bytes CRLF.
		take := min(len(data), p.chunkLeft)
		consumed := p.chunkSize + 2 - p.chunkLeft // before this take
		if payload := min(p.chunkSize-consumed, take); payload > 0 {
			p.emitBody(data[:payload])
		}
		p.chunkLeft -= take
		return take, nil
	}
	idx := bytes.Index(data, crlf)
	if idx < 0 {
		return 0, nil
	}
	line := data[:idx]
	size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
	switch {
	case err != nil || size < 0:
		return idx + 2, &parseError{"bad chunk size: " + string(line)}
	case size == 0:
		p.lastCRLF = 2 // terminating chunk: its final CRLF follows
	default:
		p.chunkSize = int(size)
		p.chunkLeft = int(size) + 2 // payload + CRLF
	}
	return idx + 2, nil
}

// close signals stream end (peer FIN) to complete close-framed bodies.
func (p *responseParser) close() {
	if p.cur != nil && p.untilClose {
		p.finish()
	}
}

func (p *responseParser) finish() {
	resp := p.cur
	p.cur = nil
	p.untilClose = false
	p.chunked = false
	p.chunkLeft = 0
	p.need = 0
	p.dropped = false
	if p.onDone != nil {
		p.onDone(resp)
	}
}

// ChunkEncode frames data as one HTTP chunk.
func ChunkEncode(data []byte) []byte {
	var num [16]byte
	size := strconv.AppendInt(num[:0], int64(len(data)), 16)
	b := append(make([]byte, 0, len(size)+len(data)+len("\r\n\r\n")), size...)
	b = append(append(b, "\r\n"...), data...)
	return append(b, "\r\n"...)
}

// ChunkTerminator is the zero-length chunk ending a chunked response.
func ChunkTerminator() []byte { return []byte("0\r\n\r\n") }
