package httpsim

import (
	"bytes"
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is compiled
// in: it allocates on its own account, so an exact allocation pin skips.
var raceEnabled bool

// The renderers as they were before they went append-based: fmt into a
// bytes.Buffer. They are the byte-identity oracles of the fuzz render
// arms — the wire format must not move by one byte.

func refSortedKeys(h Header) []string {
	ks := make([]string, 0, len(h))
	for k := range h {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func refMarshalRequest(r *Request) []byte {
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
	for _, k := range refSortedKeys(r.Header) {
		fmt.Fprintf(&b, "%s: %s\r\n", k, r.Header[k])
	}
	b.WriteString("\r\n")
	return b.Bytes()
}

func refMarshalResponseHeader(status int, h Header) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", status, statusText(status))
	for _, k := range refSortedKeys(h) {
		fmt.Fprintf(&b, "%s: %s\r\n", k, h[k])
	}
	b.WriteString("\r\n")
	return b.Bytes()
}

func refChunkEncode(data []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%x\r\n", len(data))
	b.Write(data)
	b.WriteString("\r\n")
	return b.Bytes()
}

// fuzzHeader builds 0–3 headers from s: up to three '\n'-separated
// "key:value" lines.
func fuzzHeader(s string) Header {
	if s == "" {
		return nil
	}
	h := Header{}
	for _, ln := range strings.SplitN(s, "\n", 3) {
		k, v, _ := strings.Cut(ln, ":")
		h[k] = v
	}
	return h
}

// onWire reports whether s survives a head round trip as a field: no
// line break, nothing a parser trims.
func onWire(s string) bool {
	return !strings.ContainsAny(s, "\r\n") && s == strings.TrimSpace(s)
}

// headerOnWire reports whether every header of h survives a round trip;
// host says whether a Host key would be taken for the request's Host.
func headerOnWire(h Header, host bool) bool {
	for k, v := range h {
		if !onWire(k) || !onWire(v) || strings.Contains(k, ":") || host && k == "Host" {
			return false
		}
	}
	return true
}

func sameHeader(a, b Header) bool {
	return len(a) == 0 && len(b) == 0 || maps.Equal(a, b)
}

// checkRequestRender holds Marshal to the reference renderer byte for
// byte and, when every field can cross the wire, parse(render(r)) to r.
func checkRequestRender(t *testing.T, r *Request) {
	t.Helper()
	raw := r.Marshal()
	if want := refMarshalRequest(r); !bytes.Equal(raw, want) {
		t.Fatalf("Marshal(%+v)\n got %q\nwant %q", r, raw, want)
	}
	if strings.ContainsAny(r.Method+r.Path, " ") || !onWire(r.Method) || !onWire(r.Path) ||
		!onWire(r.Host) || !headerOnWire(r.Header, true) {
		return
	}
	want := *r
	if want.Method == "" {
		want.Method = "GET"
	}
	if want.Path == "" {
		want.Path = "/"
	}
	var p requestParser
	reqs, err := p.feed(raw)
	if err != nil || len(reqs) != 1 {
		t.Fatalf("parse(%q) = %v, %v", raw, reqs, err)
	}
	got := reqs[0]
	if got.Method != want.Method || got.Path != want.Path || got.Host != want.Host || !sameHeader(got.Header, want.Header) {
		t.Fatalf("parse(render(%+v)) = %+v", want, got)
	}
}

// checkResponseRender does the same for a response head, rendered from
// h alone and with Content-Length: cl (cl ≥ 0) in place of h's. The
// parsed head keeps every line but the framing ones, which set the
// parser's framing — or its error, for a Content-Length that is no
// length.
func checkResponseRender(t *testing.T, status int, h Header, cl int) {
	t.Helper()
	for _, n := range []int{-1, cl} {
		want := h
		if n >= 0 {
			want = maps.Clone(h)
			if want == nil {
				want = Header{}
			}
			want[contentLength] = strconv.Itoa(n)
		}
		raw := marshalResponseHeader(status, h, n)
		if ref := refMarshalResponseHeader(status, want); !bytes.Equal(raw, ref) {
			t.Fatalf("marshalResponseHeader(%d, %v, %d)\n got %q\nwant %q", status, h, n, raw, ref)
		}
		if !headerOnWire(h, false) {
			continue
		}
		wantErr := false
		if v, ok := want[contentLength]; ok && !strings.EqualFold(want[transferEncoding], "chunked") {
			length, err := strconv.Atoi(v)
			wantErr = err != nil || length < 0
		}
		rest := maps.Clone(want)
		delete(rest, contentLength)
		delete(rest, transferEncoding)
		p := &responseParser{countOnly: true}
		err := p.begin(raw[:len(raw)-len(headEnd)])
		if (err != nil) != wantErr || p.resp.Status != status || !sameHeader(p.resp.Header, rest) {
			t.Fatalf("parse(render(%d, %v, %d)) = %+v, %v", status, h, n, p.resp, err)
		}
	}
}

// TestHeadAllocPins pins what one HTTP head costs. Rendering is one
// exactly sized slice, and nothing for a head without header lines (a
// shared slice). Parsing copies out only what the request or response
// keeps: a request its path (a repeated Host is shared, the method GET
// is a constant), a response nothing — its framing lines become parser
// fields — unless it has another line, which costs a header map (two
// allocations: the map and its group) and the line's two strings. The
// counts are exact; update them only with a reason.
func TestHeadAllocPins(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	get := NewGet("bing-like", "/search?c=2&id=7&q=computer+science&r=102")
	keepAlive := NewGet("bing-like", "/search?q=x")
	keepAlive.Header = Header{"Connection": "keep-alive"}
	queued := Header{"X-Queue-Wait": "1500000"}
	reqRaw := get.Marshal()
	clRaw := marshalResponseHeader(200, nil, 17408)
	queuedRaw := marshalResponseHeader(200, queued, 17408)
	var reqP requestParser
	respP := &responseParser{countOnly: true}
	parseResp := func(raw []byte) func() {
		return func() {
			if err := respP.feed(raw); err != nil || respP.cur == nil {
				t.Fatal(err)
			}
			respP.cur, respP.need = nil, 0
		}
	}
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"Request.Marshal", 1, func() { get.Marshal() }},
		{"Request.Marshal/header", 1, func() { keepAlive.Marshal() }},
		{"marshalResponseHeader/bare", 0, func() { marshalResponseHeader(200, nil, -1) }},
		{"marshalResponseHeader/content-length", 1, func() { marshalResponseHeader(200, nil, 17408) }},
		{"marshalResponseHeader/two-headers", 1, func() { marshalResponseHeader(200, queued, 17408) }},
		{"ChunkEncode", 1, func() { ChunkEncode(reqRaw) }},
		{"request/host-only/one-segment", 1, func() {
			if reqs, err := reqP.feed(reqRaw); err != nil || len(reqs) != 1 {
				t.Fatal(reqs, err)
			}
		}},
		{"response/content-length-head", 0, parseResp(clRaw)},
		{"response/queue-wait-head", 4, parseResp(queuedRaw)},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %v allocations, pinned %v", c.name, got, c.want)
		}
	}
}
