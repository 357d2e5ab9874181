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
	"strings"
)

// Header is an ordered-insensitive header map with canonicalized-enough
// keys (exact-match; producers and consumers agree on casing). A parsed
// head without header lines (bar Host) has a nil Header; readers index it.
type Header map[string]string

// Request is an HTTP request. Only bodyless methods (GET) are supported;
// search queries carry their keywords in the URL, as the real services
// do.
type Request struct {
	Method string
	Path   string
	Host   string
	Header Header
}

// NewGet builds a GET request for path against the given virtual host.
func NewGet(host, path string) *Request {
	return &Request{Method: "GET", Path: path, Host: host, Header: Header{}}
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
	return marshalHead(r.Header, method, " ", path, " HTTP/1.1\r\nHost: ", r.Host, "\r\n")
}

// Response is a fully received HTTP response.
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
// concatenated parts (the first line and its CRLF), h's lines in key
// order, and the blank line.
func marshalHead(h Header, parts ...string) []byte {
	n := len("\r\n")
	for _, s := range parts {
		n += len(s)
	}
	keys := make([]string, 0, 4)
	for k, v := range h {
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
		b = append(append(append(append(b, k...), ": "...), h[k]...), "\r\n"...)
	}
	return append(b, "\r\n"...)
}

// marshalResponseHeader renders a response status line plus headers.
func marshalResponseHeader(status int, h Header) []byte {
	var num [20]byte
	code := strconv.AppendInt(num[:0], int64(status), 10)
	return marshalHead(h, "HTTP/1.1 ", string(code), " ", statusText(status), "\r\n")
}

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

// requestParser accumulates stream bytes and emits complete requests.
type requestParser struct {
	// carry stages an incomplete head, or what followed a malformed one;
	// a head that arrives whole is parsed from the delivered slice.
	carry []byte
	first [1]*Request // backs feed's result: one request costs no slice
}

// feed appends stream data and returns any complete requests parsed. The
// returned slice is valid until the next feed.
func (p *requestParser) feed(data []byte) ([]*Request, error) {
	if len(p.carry) > 0 {
		p.carry = append(p.carry, data...)
		data = p.carry
	}
	reqs := p.first[:0]
	var err error
	for idx := bytes.Index(data, headEnd); idx >= 0 && err == nil; idx = bytes.Index(data, headEnd) {
		var req *Request
		if req, err = parseRequestHead(string(data[:idx])); err == nil {
			reqs = append(reqs, req)
		}
		data = data[idx+len(headEnd):]
	}
	p.carry = append(p.carry[:0], data...)
	return reqs, err
}

func parseRequestHead(head string) (*Request, error) {
	line, rest, more := strings.Cut(head, "\r\n")
	method, target, ok := strings.Cut(line, " ")
	path, proto, ok2 := strings.Cut(target, " ")
	if !ok || !ok2 || !strings.HasPrefix(proto, "HTTP/1.") {
		return nil, &parseError{"bad request line: " + line}
	}
	req := &Request{Method: method, Path: path}
	var err error
	req.Header, err = parseHeaderLines(rest, more, &req.Host)
	if err != nil {
		return nil, err
	}
	return req, nil
}

// parseHeaderLines parses the header lines that follow a head's first
// line (more: the head has any). A Host line goes to *host when host is
// non-nil. The map stays nil until a line needs it.
func parseHeaderLines(rest string, more bool, host *string) (Header, error) {
	var h Header
	for more {
		var ln string
		ln, rest, more = strings.Cut(rest, "\r\n")
		k, v, ok := strings.Cut(ln, ":")
		if !ok {
			return nil, &parseError{"bad header line: " + ln}
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch {
		case host != nil && k == "Host":
			*host = v
		case h == nil:
			h = Header{k: v}
		default:
			h[k] = v
		}
	}
	return h, nil
}

// responseParser accumulates stream bytes and emits responses. Framing:
// Transfer-Encoding: chunked when declared, Content-Length when present,
// otherwise read-until-close.
type responseParser struct {
	carry      []byte // framing that cannot be parsed yet (see feed)
	cur        *Response
	need       int  // remaining body bytes (Content-Length framing)
	untilClose bool // close-framing in progress
	chunked    bool // chunked framing in progress
	chunkSize  int  // payload size of the current chunk
	chunkLeft  int  // remaining bytes of the current chunk (+CRLF)
	lastCRLF   int  // bytes of the chunked terminator's final CRLF still due
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
				err = p.begin(string(data[:idx]))
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

// begin parses a response head, sets up its body framing and completes
// a response that has no body.
func (p *responseParser) begin(head string) error {
	resp, err := parseResponseHead(head)
	if err != nil {
		return err
	}
	p.cur = resp
	switch {
	case strings.EqualFold(resp.Header["Transfer-Encoding"], "chunked"):
		p.chunked = true
		p.untilClose = false
	default:
		if cl, ok := resp.Header["Content-Length"]; ok {
			n, err := strconv.Atoi(cl)
			if err != nil || n < 0 {
				return &parseError{"bad Content-Length: " + cl}
			}
			p.need = n
			p.untilClose = false
			if n > 0 && !p.countOnly {
				// One exact allocation up front: the per-fragment
				// emitBody appends never grow Body.
				resp.Body = make([]byte, 0, n)
			}
		} else {
			p.untilClose = true
		}
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
	idx := bytes.Index(data, []byte("\r\n"))
	if idx < 0 {
		return 0, nil
	}
	line := string(data[:idx])
	size, err := strconv.ParseInt(strings.TrimSpace(line), 16, 32)
	switch {
	case err != nil || size < 0:
		return idx + 2, &parseError{"bad chunk size: " + line}
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

func parseResponseHead(head string) (*Response, error) {
	line, rest, more := strings.Cut(head, "\r\n")
	proto, status, ok := strings.Cut(line, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/1.") {
		return nil, &parseError{"bad status line: " + line}
	}
	status, _, _ = strings.Cut(status, " ")
	code, err := strconv.Atoi(status)
	if err != nil {
		return nil, &parseError{"bad status code: " + status}
	}
	h, err := parseHeaderLines(rest, more, nil)
	if err != nil {
		return nil, err
	}
	return &Response{Status: code, Header: h}, nil
}
