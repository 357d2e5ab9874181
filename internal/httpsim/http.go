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
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Header is an ordered-insensitive header map with canonicalized-enough
// keys (exact-match; producers and consumers agree on casing).
type Header map[string]string

// clone returns a copy of h (nil-safe).
func (h Header) clone() Header {
	out := make(Header, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

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
	var b bytes.Buffer
	method := r.Method
	if method == "" {
		method = "GET"
	}
	path := r.Path
	if path == "" {
		path = "/"
	}
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\n", method, path)
	fmt.Fprintf(&b, "Host: %s\r\n", r.Host)
	for _, k := range sortedKeys(r.Header) {
		fmt.Fprintf(&b, "%s: %s\r\n", k, r.Header[k])
	}
	b.WriteString("\r\n")
	return b.Bytes()
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

func sortedKeys(h Header) []string {
	ks := make([]string, 0, len(h))
	for k := range h {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// marshalResponseHeader renders a response status line plus headers.
func marshalResponseHeader(status int, h Header) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", status, statusText(status))
	for _, k := range sortedKeys(h) {
		fmt.Fprintf(&b, "%s: %s\r\n", k, h[k])
	}
	b.WriteString("\r\n")
	return b.Bytes()
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

// requestParser accumulates stream bytes and emits complete requests.
type requestParser struct {
	buf bytes.Buffer
}

// feed appends stream data and returns any complete requests parsed.
func (p *requestParser) feed(data []byte) ([]*Request, error) {
	p.buf.Write(data)
	var out []*Request
	for {
		raw := p.buf.Bytes()
		idx := bytes.Index(raw, []byte("\r\n\r\n"))
		if idx < 0 {
			return out, nil
		}
		head := string(raw[:idx])
		p.buf.Next(idx + 4)
		req, err := parseRequestHead(head)
		if err != nil {
			return out, err
		}
		out = append(out, req)
	}
}

func parseRequestHead(head string) (*Request, error) {
	lines := strings.Split(head, "\r\n")
	if len(lines) == 0 {
		return nil, &parseError{"empty request"}
	}
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
		return nil, &parseError{"bad request line: " + lines[0]}
	}
	req := &Request{Method: parts[0], Path: parts[1], Header: Header{}}
	for _, ln := range lines[1:] {
		k, v, ok := splitHeaderLine(ln)
		if !ok {
			return nil, &parseError{"bad header line: " + ln}
		}
		if k == "Host" {
			req.Host = v
		} else {
			req.Header[k] = v
		}
	}
	return req, nil
}

func splitHeaderLine(ln string) (k, v string, ok bool) {
	i := strings.Index(ln, ":")
	if i < 0 {
		return "", "", false
	}
	return strings.TrimSpace(ln[:i]), strings.TrimSpace(ln[i+1:]), true
}

// responseParser accumulates stream bytes and emits responses. Framing:
// Transfer-Encoding: chunked when declared, Content-Length when present,
// otherwise read-until-close.
type responseParser struct {
	buf        bytes.Buffer
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
// append cannot clobber later body bytes). Sharing the Body copy this
// way means each fragment costs zero allocations beyond amortized Body
// growth, where the parser previously made a throwaway copy per
// fragment — a top allocator in full-study profiles.
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
	case p.cur == nil || p.buf.Len() > 0:
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
func (p *responseParser) feed(data []byte) error {
	// Mid-body with an empty carry buffer: consume straight from the
	// caller's slice instead of staging through p.buf. Body bytes
	// dominate stream volume, so this skips a buffer copy of nearly
	// every payload byte (chunked framing still stages, as it has to
	// scan for chunk boundaries).
	if p.cur != nil && !p.chunked && p.buf.Len() == 0 && len(data) > 0 {
		if p.untilClose {
			p.emitBody(data)
			return nil
		}
		n := len(data)
		if n > p.need {
			n = p.need
		}
		p.emitBody(data[:n])
		data = data[n:]
		p.need -= n
		if p.need > 0 {
			return nil
		}
		p.finish()
		if len(data) == 0 {
			return nil
		}
	}
	p.buf.Write(data)
	for {
		if p.cur == nil {
			raw := p.buf.Bytes()
			idx := bytes.Index(raw, []byte("\r\n\r\n"))
			if idx < 0 {
				return nil
			}
			head := string(raw[:idx])
			p.buf.Next(idx + 4)
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
						// One exact allocation up front; the per-fragment
						// emitBody appends then never grow (growslice on
						// Body was a top allocator in full-study profiles).
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
				continue
			}
		}
		if p.chunked {
			done, err := p.feedChunked()
			if err != nil {
				return err
			}
			if !done {
				return nil
			}
			continue
		}
		if p.untilClose {
			// Consume everything; completion happens at close().
			if p.buf.Len() > 0 {
				p.emitBody(p.buf.Bytes())
				p.buf.Reset()
			}
			return nil
		}
		if p.buf.Len() == 0 {
			return nil
		}
		n := p.buf.Len()
		if n > p.need {
			n = p.need
		}
		p.emitBody(p.buf.Next(n))
		p.need -= n
		if p.need == 0 {
			p.finish()
			continue
		}
		return nil
	}
}

// feedChunked consumes chunked-framing data from the buffer. It returns
// done=true when the terminating zero-length chunk completed the
// response.
func (p *responseParser) feedChunked() (done bool, err error) {
	for {
		if p.lastCRLF > 0 {
			// The terminator's final CRLF may trail its size line by a
			// segment; the response is complete only once it is consumed,
			// or its bytes would prefix the next response on a keep-alive
			// connection.
			n := p.buf.Len()
			if n > p.lastCRLF {
				n = p.lastCRLF
			}
			p.buf.Next(n)
			if p.lastCRLF -= n; p.lastCRLF > 0 {
				return false, nil
			}
			p.finish()
			return true, nil
		}
		if p.chunkLeft > 0 {
			// Consume chunk payload plus its trailing CRLF. Offsets
			// [0, chunkSize) of the chunk are payload; the final two
			// bytes are CRLF.
			n := p.buf.Len()
			if n == 0 {
				return false, nil
			}
			take := p.chunkLeft
			if take > n {
				take = n
			}
			raw := p.buf.Next(take)
			consumed := (p.chunkSize + 2) - p.chunkLeft // before this take
			payloadEnd := p.chunkSize - consumed        // payload bytes within raw
			if payloadEnd > len(raw) {
				payloadEnd = len(raw)
			}
			if payloadEnd > 0 {
				p.emitBody(raw[:payloadEnd])
			}
			p.chunkLeft -= take
			continue
		}
		// Expect a chunk-size line.
		raw := p.buf.Bytes()
		idx := bytes.Index(raw, []byte("\r\n"))
		if idx < 0 {
			return false, nil
		}
		line := string(raw[:idx])
		p.buf.Next(idx + 2)
		size, perr := strconv.ParseInt(strings.TrimSpace(line), 16, 32)
		if perr != nil || size < 0 {
			return false, &parseError{"bad chunk size: " + line}
		}
		if size == 0 {
			p.lastCRLF = 2 // terminating chunk: its final CRLF follows
			continue
		}
		p.chunkSize = int(size)
		p.chunkLeft = int(size) + 2 // payload + CRLF
	}
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
	var b bytes.Buffer
	fmt.Fprintf(&b, "%x\r\n", len(data))
	b.Write(data)
	b.WriteString("\r\n")
	return b.Bytes()
}

// ChunkTerminator is the zero-length chunk ending a chunked response.
func ChunkTerminator() []byte { return []byte("0\r\n\r\n") }

func parseResponseHead(head string) (*Response, error) {
	lines := strings.Split(head, "\r\n")
	if len(lines) == 0 {
		return nil, &parseError{"empty response"}
	}
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		return nil, &parseError{"bad status line: " + lines[0]}
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, &parseError{"bad status code: " + parts[1]}
	}
	resp := &Response{Status: code, Header: Header{}}
	for _, ln := range lines[1:] {
		k, v, ok := splitHeaderLine(ln)
		if !ok {
			return nil, &parseError{"bad header line: " + ln}
		}
		resp.Header[k] = v
	}
	return resp, nil
}
