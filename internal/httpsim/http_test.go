package httpsim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
)

type world struct {
	sim    *simnet.Sim
	net    *simnet.Network
	client *tcpsim.Endpoint
	server *tcpsim.Endpoint
}

func newWorld(t *testing.T, delay time.Duration) *world {
	t.Helper()
	sim := simnet.New(11)
	n := simnet.NewNetwork(sim)
	n.SetLink("c", "s", simnet.PathParams{Delay: delay})
	return &world{
		sim:    sim,
		net:    n,
		client: tcpsim.NewEndpoint(n, "c", tcpsim.Config{}),
		server: tcpsim.NewEndpoint(n, "s", tcpsim.Config{}),
	}
}

func TestRequestMarshalParse(t *testing.T) {
	req := NewGet("www.bing.com", "/search?q=computer+science")
	req.Header = Header{"User-Agent": "fesplit-emulator"}
	var p requestParser
	reqs, err := p.feed(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 {
		t.Fatalf("parsed %d requests", len(reqs))
	}
	got := reqs[0]
	if got.Method != "GET" || got.Path != "/search?q=computer+science" {
		t.Fatalf("request line = %s %s", got.Method, got.Path)
	}
	if got.Host != "www.bing.com" {
		t.Fatalf("host = %q", got.Host)
	}
	if got.Header["User-Agent"] != "fesplit-emulator" {
		t.Fatalf("header = %v", got.Header)
	}
}

func TestRequestParserSplitAcrossFeeds(t *testing.T) {
	raw := NewGet("h", "/a").Marshal()
	var p requestParser
	for i := 0; i < len(raw); i++ {
		reqs, err := p.feed(raw[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) > 0 {
			if i != len(raw)-1 {
				t.Fatalf("request completed early at byte %d/%d", i, len(raw))
			}
			if reqs[0].Path != "/a" {
				t.Fatalf("path = %q", reqs[0].Path)
			}
			return
		}
	}
	t.Fatal("request never completed")
}

func TestRequestParserPipelined(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(NewGet("h", "/1").Marshal())
	buf.Write(NewGet("h", "/2").Marshal())
	var p requestParser
	reqs, err := p.feed(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 || reqs[0].Path != "/1" || reqs[1].Path != "/2" {
		t.Fatalf("pipelined parse = %v", reqs)
	}
}

func TestRequestParserMalformed(t *testing.T) {
	var p requestParser
	if _, err := p.feed([]byte("NONSENSE\r\n\r\n")); err == nil {
		t.Fatal("malformed request accepted")
	}
	var p2 requestParser
	if _, err := p2.feed([]byte("GET / HTTP/1.1\r\nbadheader\r\n\r\n")); err == nil {
		t.Fatal("malformed header accepted")
	}
}

func TestResponseParserContentLength(t *testing.T) {
	var got *Response
	var chunks [][]byte
	p := &responseParser{
		onBodyChunk: func(b []byte) { chunks = append(chunks, b) },
		onDone:      func(r *Response) { got = r },
	}
	raw := marshalResponseHeader(200, Header{"Content-Length": "5"}, -1)
	if err := p.feed(raw); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("done before body")
	}
	if err := p.feed([]byte("hel")); err != nil {
		t.Fatal(err)
	}
	if err := p.feed([]byte("lo")); err != nil {
		t.Fatal(err)
	}
	if got == nil || string(got.Body) != "hello" {
		t.Fatalf("body = %v", got)
	}
	if len(chunks) != 2 {
		t.Fatalf("chunks = %d", len(chunks))
	}
}

func TestResponseParserCloseFramed(t *testing.T) {
	var got *Response
	p := &responseParser{onDone: func(r *Response) { got = r }}
	if err := p.feed(marshalResponseHeader(200, Header{}, -1)); err != nil {
		t.Fatal(err)
	}
	if err := p.feed([]byte("partial body ")); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("close-framed response completed before close")
	}
	if err := p.feed([]byte("and more")); err != nil {
		t.Fatal(err)
	}
	p.close()
	if got == nil || string(got.Body) != "partial body and more" {
		t.Fatalf("body = %v", got)
	}
}

func TestResponseParserSequentialCL(t *testing.T) {
	var done []Response // the parser reuses its Response: keep copies
	p := &responseParser{onDone: func(r *Response) { done = append(done, *r) }}
	var raw bytes.Buffer
	raw.Write(marshalResponseHeader(200, Header{"Content-Length": "2"}, -1))
	raw.WriteString("ab")
	raw.Write(marshalResponseHeader(404, Header{"Content-Length": "0"}, -1))
	if err := p.feed(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("responses = %d", len(done))
	}
	if string(done[0].Body) != "ab" || done[0].Status != 200 {
		t.Fatalf("first = %+v", done[0])
	}
	if done[1].Status != 404 || len(done[1].Body) != 0 {
		t.Fatalf("second = %+v", done[1])
	}
}

func TestResponseParserBadContentLength(t *testing.T) {
	p := &responseParser{}
	err := p.feed(marshalResponseHeader(200, Header{"Content-Length": "nan"}, -1))
	if err == nil {
		t.Fatal("bad Content-Length accepted")
	}
}

func TestResponseParserBadStatusLine(t *testing.T) {
	p := &responseParser{}
	if err := p.feed([]byte("NOT HTTP\r\n\r\n")); err == nil {
		t.Fatal("bad status line accepted")
	}
}

func TestEndToEndGet(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond)
	if _, err := NewServer(w.server, 80, func(rw *ResponseWriter, r *Request) {
		if r.Path != "/search?q=x" {
			t.Errorf("path = %q", r.Path)
		}
		rw.WriteHeader(200, Header{})
		rw.Write([]byte("static part"))
		rw.Write([]byte(" dynamic part"))
		rw.End()
	}); err != nil {
		t.Fatal(err)
	}
	var resp *Response
	Get(w.client, "s", 80, NewGet("svc", "/search?q=x"), ResponseCallbacks{
		OnDone: func(r *Response) { resp = r },
	})
	w.sim.Run()
	if resp == nil {
		t.Fatal("no response")
	}
	if string(resp.Body) != "static part dynamic part" {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestStreamedWriteOverVirtualTime(t *testing.T) {
	// Handler writes the second part 100ms later — the FE pattern.
	w := newWorld(t, 5*time.Millisecond)
	if _, err := NewServer(w.server, 80, func(rw *ResponseWriter, r *Request) {
		rw.WriteHeader(200, Header{})
		rw.Write([]byte("early"))
		w.sim.Schedule(100*time.Millisecond, func() {
			rw.Write([]byte("late"))
			rw.End()
		})
	}); err != nil {
		t.Fatal(err)
	}
	var firstChunkAt, doneAt time.Duration
	var resp *Response
	Get(w.client, "s", 80, NewGet("h", "/"), ResponseCallbacks{
		OnBody: func(b []byte) {
			if firstChunkAt == 0 {
				firstChunkAt = w.sim.Now()
			}
		},
		OnDone: func(r *Response) { resp, doneAt = r, w.sim.Now() },
	})
	w.sim.Run()
	if resp == nil || string(resp.Body) != "earlylate" {
		t.Fatalf("resp = %+v", resp)
	}
	if firstChunkAt >= 100*time.Millisecond {
		t.Fatalf("first chunk at %v — static part was not flushed early", firstChunkAt)
	}
	if doneAt < 100*time.Millisecond {
		t.Fatalf("done at %v — before the late write", doneAt)
	}
}

func TestDefaultHeaderOnWrite(t *testing.T) {
	w := newWorld(t, time.Millisecond)
	if _, err := NewServer(w.server, 80, func(rw *ResponseWriter, r *Request) {
		rw.Write([]byte("implicit 200"))
		rw.End()
	}); err != nil {
		t.Fatal(err)
	}
	var resp *Response
	Get(w.client, "s", 80, NewGet("h", "/"), ResponseCallbacks{
		OnDone: func(r *Response) { resp = r },
	})
	w.sim.Run()
	if resp == nil || resp.Status != 200 || string(resp.Body) != "implicit 200" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestDoubleWriteHeaderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double WriteHeader")
		}
	}()
	rw := &ResponseWriter{}
	rw.wroteHeader = true
	rw.WriteHeader(200, Header{})
}

func TestPersistentConnSequentialRequests(t *testing.T) {
	w := newWorld(t, 8*time.Millisecond)
	served := 0
	if _, err := NewServer(w.server, 80, func(rw *ResponseWriter, r *Request) {
		served++
		body := []byte("resp:" + r.Path)
		rw.WriteHeader(200, ContentLengthHeader(len(body)))
		rw.Write(body)
		rw.End()
	}); err != nil {
		t.Fatal(err)
	}
	pc := NewPersistentConn(w.client, "s", 80)
	var bodies []string
	for i := 0; i < 3; i++ {
		path := "/" + strings.Repeat("x", i+1)
		pc.Do(NewGet("h", path), ResponseCallbacks{
			OnDone: func(r *Response) { bodies = append(bodies, string(r.Body)) },
		})
	}
	w.sim.Run()
	if served != 3 {
		t.Fatalf("served = %d", served)
	}
	want := []string{"resp:/x", "resp:/xx", "resp:/xxx"}
	for i, b := range bodies {
		if b != want[i] {
			t.Fatalf("bodies = %v", bodies)
		}
	}
}

func TestPersistentConnReusesTransport(t *testing.T) {
	w := newWorld(t, 5*time.Millisecond)
	handshakes := 0
	w.server.Tap = func(ev tcpsim.TapEvent, data []byte, sack []tcpsim.SACKBlock) {
		if ev.Dir == tcpsim.DirRecv && ev.Segment.Flags == tcpsim.FlagSYN {
			handshakes++
		}
	}
	if _, err := NewServer(w.server, 80, func(rw *ResponseWriter, r *Request) {
		rw.WriteHeader(200, ContentLengthHeader(2))
		rw.Write([]byte("ok"))
	}); err != nil {
		t.Fatal(err)
	}
	pc := NewPersistentConn(w.client, "s", 80)
	done := 0
	for i := 0; i < 5; i++ {
		pc.Do(NewGet("h", "/"), ResponseCallbacks{
			OnDone: func(*Response) { done++ },
		})
	}
	w.sim.Run()
	if done != 5 {
		t.Fatalf("done = %d", done)
	}
	if handshakes != 1 {
		t.Fatalf("handshakes = %d, want 1 (persistent)", handshakes)
	}
}

func TestPersistentConnQueueDrainOrder(t *testing.T) {
	w := newWorld(t, time.Millisecond)
	if _, err := NewServer(w.server, 80, func(rw *ResponseWriter, r *Request) {
		body := []byte(r.Path)
		rw.WriteHeader(200, ContentLengthHeader(len(body)))
		rw.Write(body)
	}); err != nil {
		t.Fatal(err)
	}
	pc := NewPersistentConn(w.client, "s", 80)
	var order []string
	for _, p := range []string{"/a", "/b", "/c", "/d"} {
		pc.Do(NewGet("h", p), ResponseCallbacks{
			OnDone: func(r *Response) { order = append(order, string(r.Body)) },
		})
	}
	if len(pc.queue)-pc.head == 0 {
		t.Fatal("queue should hold requests before the handshake")
	}
	w.sim.Run()
	if strings.Join(order, "") != "/a/b/c/d" {
		t.Fatalf("order = %v", order)
	}
}

// TestPersistentConnCloseAfterPeerClose: on a recycling endpoint, a
// connection the peer closed returns to the free list and the next Dial
// reinitialises the same object, so a later Close must not reach it.
// Mutation: let Close call the connection's Close unconditionally and
// the new connection sends a FIN.
func TestPersistentConnCloseAfterPeerClose(t *testing.T) {
	w := newWorld(t, time.Millisecond)
	w.client = tcpsim.NewEndpoint(w.net, "c", tcpsim.Config{RecycleConns: true})
	if _, err := w.server.Listen(80, func(c *tcpsim.Conn) {
		c.OnConnect = c.Close // the peer closes at once
		c.OnClose = c.Close
	}); err != nil {
		t.Fatal(err)
	}
	finned := false
	if _, err := w.server.Listen(81, func(c *tcpsim.Conn) {
		c.OnClose = func() { finned = true }
	}); err != nil {
		t.Fatal(err)
	}
	pc := NewPersistentConn(w.client, "s", 80)
	w.sim.Run()
	if w.client.FreeConns() != 1 {
		t.Fatalf("%d connections on the free list, want the closed one", w.client.FreeConns())
	}
	next := w.client.Dial("s", 81)
	if next != pc.conn {
		t.Fatal("the new connection did not reuse the closed one's object")
	}
	pc.Close()
	w.sim.Run()
	if finned || next.Closed() {
		t.Fatalf("Close on a peer-closed PersistentConn closed the connection that reused its object (FIN seen %v, closed %v)",
			finned, next.Closed())
	}
}

func TestPersistentConnDoAfterClose(t *testing.T) {
	w := newWorld(t, time.Millisecond)
	if _, err := NewServer(w.server, 80, func(rw *ResponseWriter, r *Request) {
		rw.WriteHeader(200, ContentLengthHeader(0))
	}); err != nil {
		t.Fatal(err)
	}
	pc := NewPersistentConn(w.client, "s", 80)
	w.sim.Run()
	pc.Close()
	errs := 0
	pc.Do(NewGet("h", "/"), ResponseCallbacks{OnError: func(error) { errs++ }})
	w.sim.Run()
	if errs != 1 {
		t.Fatalf("errs = %d, want rejection after Close", errs)
	}
}

func TestGetTruncatedResponseError(t *testing.T) {
	// Server closes the connection before sending a complete header.
	w := newWorld(t, time.Millisecond)
	if _, err := w.server.Listen(80, func(c *tcpsim.Conn) {
		c.Send([]byte("HTTP/1.1 200 OK\r\nContent-Le")) // truncated header
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	gotErr := false
	Get(w.client, "s", 80, NewGet("h", "/"), ResponseCallbacks{
		OnError: func(error) { gotErr = true },
	})
	w.sim.Run()
	if !gotErr {
		t.Fatal("truncated response produced no error")
	}
}

func TestStatusText(t *testing.T) {
	for code, want := range map[int]string{200: "OK", 404: "Not Found",
		503: "Service Unavailable", 999: "Status"} {
		if got := statusText(code); got != want {
			t.Fatalf("statusText(%d) = %q", code, got)
		}
	}
}

func TestContentLengthHeader(t *testing.T) {
	h := ContentLengthHeader(42)
	if h["Content-Length"] != "42" {
		t.Fatalf("h = %v", h)
	}
}

func TestChunkedResponseParsing(t *testing.T) {
	var done *Response
	var chunks [][]byte
	p := &responseParser{
		onBodyChunk: func(b []byte) { chunks = append(chunks, append([]byte(nil), b...)) },
		onDone:      func(r *Response) { done = r },
	}
	var raw bytes.Buffer
	raw.Write(marshalResponseHeader(200, Header{"Transfer-Encoding": "chunked"}, -1))
	raw.Write(ChunkEncode([]byte("hello ")))
	raw.Write(ChunkEncode([]byte("chunked world")))
	raw.Write(ChunkTerminator())
	// Feed byte by byte to exercise every split point.
	for _, b := range raw.Bytes() {
		if err := p.feed([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	if done == nil {
		t.Fatal("chunked response never completed")
	}
	if string(done.Body) != "hello chunked world" {
		t.Fatalf("body = %q", done.Body)
	}
	if len(chunks) < 2 {
		t.Fatalf("chunk callbacks = %d", len(chunks))
	}
}

func TestChunkedSequentialResponses(t *testing.T) {
	// Two chunked responses back to back on one stream (keep-alive).
	var bodies []string
	p := &responseParser{onDone: func(r *Response) { bodies = append(bodies, string(r.Body)) }}
	var raw bytes.Buffer
	for _, body := range []string{"first", "second response"} {
		raw.Write(marshalResponseHeader(200, Header{"Transfer-Encoding": "chunked"}, -1))
		raw.Write(ChunkEncode([]byte(body)))
		raw.Write(ChunkTerminator())
	}
	if err := p.feed(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 2 || bodies[0] != "first" || bodies[1] != "second response" {
		t.Fatalf("bodies = %v", bodies)
	}
}

func TestChunkedBadSize(t *testing.T) {
	p := &responseParser{}
	var raw bytes.Buffer
	raw.Write(marshalResponseHeader(200, Header{"Transfer-Encoding": "chunked"}, -1))
	raw.WriteString("zz\r\n")
	if err := p.feed(raw.Bytes()); err == nil {
		t.Fatal("bad chunk size accepted")
	}
}

func TestChunkedEndToEndKeepAlive(t *testing.T) {
	// Server answers two requests on one connection with chunked
	// responses; PersistentConn drives both.
	w := newWorld(t, 5*time.Millisecond)
	served := 0
	if _, err := NewServer(w.server, 80, func(rw *ResponseWriter, r *Request) {
		served++
		rw.WriteHeader(200, ChunkedHeader())
		rw.Write([]byte("part1-" + r.Path))
		w.sim.Schedule(50*time.Millisecond, func() {
			rw.Write([]byte("-part2"))
			rw.End()
		})
	}); err != nil {
		t.Fatal(err)
	}
	pc := NewPersistentConn(w.client, "s", 80)
	var bodies []string
	for _, path := range []string{"/a", "/b"} {
		pc.Do(NewGet("h", path), ResponseCallbacks{
			OnDone: func(r *Response) { bodies = append(bodies, string(r.Body)) },
		})
	}
	w.sim.Run()
	if served != 2 {
		t.Fatalf("served = %d", served)
	}
	if len(bodies) != 2 || bodies[0] != "part1-/a-part2" || bodies[1] != "part1-/b-part2" {
		t.Fatalf("bodies = %v", bodies)
	}
}

func TestChunkedWriterSkipsEmptyWrites(t *testing.T) {
	w := newWorld(t, time.Millisecond)
	if _, err := NewServer(w.server, 80, func(rw *ResponseWriter, r *Request) {
		rw.WriteHeader(200, ChunkedHeader())
		rw.Write(nil) // must not emit a 0-length (terminating!) chunk
		rw.Write([]byte("ok"))
		rw.End()
	}); err != nil {
		t.Fatal(err)
	}
	pc := NewPersistentConn(w.client, "s", 80)
	var got string
	pc.Do(NewGet("h", "/"), ResponseCallbacks{
		OnDone: func(r *Response) { got = string(r.Body) },
	})
	w.sim.Run()
	if got != "ok" {
		t.Fatalf("body = %q", got)
	}
}

// FuzzResponseParser hardens the streaming response parser against
// arbitrary wire bytes. Its render arm holds the status-line renderer
// and ChunkEncode to their fmt-based references byte for byte, and a
// rendered head to parse back to its status and headers.
func FuzzResponseParser(f *testing.F) {
	var seed bytes.Buffer
	seed.Write(marshalResponseHeader(200, Header{"Content-Length": "3"}, -1))
	seed.WriteString("abc")
	f.Add(seed.Bytes(), 200, "Content-Length:3")
	var chunked bytes.Buffer
	chunked.Write(marshalResponseHeader(200, Header{"Transfer-Encoding": "chunked"}, -1))
	chunked.Write(ChunkEncode([]byte("xy")))
	chunked.Write(ChunkTerminator())
	f.Add(chunked.Bytes(), 503, "")
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\nshort"), -7, "X-Queue-Wait:1500\nContent-Length:17408")
	f.Add([]byte("garbage"), 404, "a:1\nb: 2 \nc")
	f.Fuzz(func(t *testing.T, data []byte, status int, hdr string) {
		p := &responseParser{}
		_ = p.feed(data) // must not panic
		p.close()
		checkResponseRender(t, status, fuzzHeader(hdr), len(data))
		if got, want := ChunkEncode(data), refChunkEncode(data); !bytes.Equal(got, want) {
			t.Fatalf("ChunkEncode = %q, want %q", got, want)
		}
	})
}

// FuzzRequestParser does the same for the request side: arbitrary bytes
// into the parser, and Marshal against its reference and back through
// the parser.
func FuzzRequestParser(f *testing.F) {
	f.Add(NewGet("h", "/x").Marshal(), "GET", "/x", "h", "")
	f.Add([]byte("GET / HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\n"), "", "", "", "Connection:keep-alive")
	f.Add([]byte("junk\r\n\r\n"), "GET", "/search?c=2&id=7&q=a+b&r=9", "bing-like", "User-Agent:fesplit\nAccept: */*\nHost:x")
	f.Fuzz(func(t *testing.T, data []byte, method, path, host, hdr string) {
		p := &requestParser{}
		_, _ = p.feed(data) // must not panic
		checkRequestRender(t, &Request{Method: method, Path: path, Host: host, Header: fuzzHeader(hdr)})
	})
}
