package httpsim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"fesplit/internal/tcpsim"
)

// TestChunkedTerminatorSplitAcrossSegments: the terminating chunk's
// final CRLF may arrive in a later segment than its "0\r\n". The
// response completes only once the CRLF is consumed, so the next
// response on the keep-alive connection starts at its status line.
func TestChunkedTerminatorSplitAcrossSegments(t *testing.T) {
	var one bytes.Buffer
	one.Write(marshalResponseHeader(200, Header{"Transfer-Encoding": "chunked"}, -1))
	one.Write(ChunkEncode([]byte("first")))
	head := one.Len()
	one.Write(ChunkTerminator())
	for _, cut := range []int{3, 4} { // bytes of "0\r\n\r\n" in the first feed
		var bodies []string
		p := &responseParser{onDone: func(r *Response) { bodies = append(bodies, string(r.Body)) }}
		raw := one.Bytes()
		if err := p.feed(raw[:head+cut]); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(bodies) != 0 {
			t.Fatalf("cut %d: response completed before its terminator did", cut)
		}
		if err := p.feed(raw[head+cut:]); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		var two bytes.Buffer
		two.Write(marshalResponseHeader(200, Header{"Transfer-Encoding": "chunked"}, -1))
		two.Write(ChunkEncode([]byte("second")))
		two.Write(ChunkTerminator())
		if err := p.feed(two.Bytes()); err != nil {
			t.Fatalf("cut %d: second response: %v", cut, err)
		}
		if !reflect.DeepEqual(bodies, []string{"first", "second"}) {
			t.Fatalf("cut %d: bodies = %q", cut, bodies)
		}
	}
}

// TestParserContentFreeRuns feeds a content-free run in every parser
// state: it is body data under each framing and malformed anywhere else.
func TestParserContentFreeRuns(t *testing.T) {
	type step struct {
		real  string // fed as bytes, or
		blank int    // fed as a content-free run
		close bool   // or the peer closes
	}
	clHead := string(marshalResponseHeader(200, ContentLengthHeader(10), -1))
	closeHead := string(marshalResponseHeader(200, Header{}, -1))
	chunkHead := string(marshalResponseHeader(200, ChunkedHeader(), -1))
	cases := []struct {
		name    string
		steps   []step
		wantErr string
		wantLen int
	}{
		{name: "before any header", steps: []step{{blank: 4}}, wantErr: "outside a response body"},
		{name: "inside a header block", steps: []step{{real: clHead[:12]}, {blank: 4}}, wantErr: "outside a response body"},
		{name: "whole Content-Length body", steps: []step{{real: clHead}, {blank: 10}}, wantLen: 10},
		{name: "Content-Length body in three kinds", steps: []step{{real: clHead + "ab"}, {blank: 5}, {real: "xyz"}}, wantLen: 10},
		{name: "beyond Content-Length", steps: []step{{real: clHead}, {blank: 11}}, wantErr: "beyond Content-Length"},
		{name: "until close", steps: []step{{real: closeHead}, {blank: 7}, {real: "ab"}, {blank: 3}, {close: true}}, wantLen: 12},
		{name: "chunk payload", steps: []step{{real: chunkHead + "a\r\n"}, {blank: 10}, {real: "\r\n0\r\n\r\n"}}, wantLen: 10},
		{name: "chunk payload in pieces", steps: []step{{real: chunkHead + "a\r\nab"}, {blank: 6}, {real: "cd\r\n0\r\n\r\n"}}, wantLen: 10},
		{name: "chunk-size line", steps: []step{{real: chunkHead}, {blank: 3}}, wantErr: "inside chunk framing"},
		{name: "partial chunk-size line", steps: []step{{real: chunkHead + "a"}, {blank: 3}}, wantErr: "outside a response body"},
		{name: "chunk CRLF", steps: []step{{real: chunkHead + "a\r\n"}, {blank: 11}}, wantErr: "inside chunk framing"},
		{name: "terminator CRLF", steps: []step{{real: chunkHead + "a\r\n"}, {blank: 10}, {real: "\r\n0\r\n"}, {blank: 2}}, wantErr: "inside chunk framing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var done *Response
			p := &responseParser{onDone: func(r *Response) { done = r }}
			var err error
			for _, s := range tc.steps {
				switch {
				case s.close:
					p.close()
				case s.blank > 0:
					err = p.feedBlank(s.blank)
				default:
					err = p.feed([]byte(s.real))
				}
				if err != nil {
					break
				}
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if done == nil {
				t.Fatal("response never completed")
			}
			if done.BodyLen != tc.wantLen || done.Body != nil {
				t.Fatalf("BodyLen = %d (want %d), Body = %q (want nil: part of it was content-free)",
					done.BodyLen, tc.wantLen, done.Body)
			}
		})
	}
}

// TestCountOnlyRetainsNothing: a count-only caller gets the length of a
// fully materialised body and none of its bytes, under every framing.
func TestCountOnlyRetainsNothing(t *testing.T) {
	body := strings.Repeat("x", 5000)
	for name, raw := range map[string]string{
		"content-length": string(marshalResponseHeader(200, ContentLengthHeader(len(body)), -1)) + body,
		"chunked":        string(marshalResponseHeader(200, ChunkedHeader(), -1)) + string(ChunkEncode([]byte(body))) + string(ChunkTerminator()),
		"until-close":    string(marshalResponseHeader(200, Header{}, -1)) + body,
	} {
		var done *Response
		seen := 0
		p := &responseParser{countOnly: true,
			onBodyChunk: func(b []byte) { seen += len(b) },
			onDone:      func(r *Response) { done = r }}
		for off := 0; off < len(raw); off += 700 {
			end := off + 700
			if end > len(raw) {
				end = len(raw)
			}
			if err := p.feed([]byte(raw[off:end])); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		p.close()
		if done == nil || done.BodyLen != len(body) || done.Body != nil || seen != len(body) {
			t.Fatalf("%s: done = %+v, OnBody saw %d bytes", name, done, seen)
		}
	}
}

// wireEvent is what a client-side tap sees of one segment, minus its
// bytes.
type wireEvent struct {
	at       time.Duration
	dir      tcpsim.Dir
	seq, ack uint64
	flags    tcpsim.Flags
	n        int
}

// TestWriteBlankMatchesWriteOnTheWire serves the same responses once
// with Write and once with WriteBlank — Content-Length, close-framed
// and chunked keep-alive, the last with a real write between two
// content-free ones — and requires the client's packet timeline, the
// completion instants and the counted lengths to be identical.
func TestWriteBlankMatchesWriteOnTheWire(t *testing.T) {
	run := func(blank bool) (events []wireEvent, dones []string) {
		w := newWorld(t, 7*time.Millisecond)
		write := func(rw *ResponseWriter, n int) {
			if blank {
				rw.WriteBlank(n)
			} else {
				rw.Write(bytes.Repeat([]byte("b"), n))
			}
		}
		if _, err := NewServer(w.server, 80, func(rw *ResponseWriter, r *Request) {
			switch r.Path {
			case "/cl":
				rw.WriteHeader(200, ContentLengthHeader(9000))
				write(rw, 9000)
				rw.End()
			case "/close":
				rw.WriteHeader(200, Header{})
				write(rw, 3000)
				w.sim.Schedule(40*time.Millisecond, func() {
					write(rw, 20000)
					rw.End()
				})
			default: // chunked keep-alive
				rw.WriteHeader(200, ChunkedHeader())
				write(rw, 8192)
				rw.Write([]byte("<!-- real bytes between content-free chunks -->"))
				w.sim.Schedule(30*time.Millisecond, func() {
					write(rw, 21000)
					rw.End()
				})
			}
		}); err != nil {
			t.Fatal(err)
		}
		w.client.Tap = func(ev tcpsim.TapEvent, data []byte, sack []tcpsim.SACKBlock) {
			s := ev.Segment
			events = append(events, wireEvent{ev.Time, ev.Dir, s.Seq, s.Ack, s.Flags, int(s.Len)})
		}
		done := func(tag string) ResponseCallbacks {
			return ResponseCallbacks{CountOnly: true, OnDone: func(r *Response) {
				if r.Body != nil {
					t.Errorf("%s: count-only response retained %d bytes", tag, len(r.Body))
				}
				dones = append(dones, fmt.Sprintf("%s %d %d @%v", tag, r.Status, r.BodyLen, w.sim.Now()))
			}}
		}
		Get(w.client, "s", 80, NewGet("h", "/cl"), done("cl"))
		w.sim.Schedule(200*time.Millisecond, func() { Get(w.client, "s", 80, NewGet("h", "/close"), done("close")) })
		w.sim.Schedule(500*time.Millisecond, func() {
			pc := NewPersistentConn(w.client, "s", 80)
			pc.Do(NewGet("h", "/chunked/1"), done("chunked1"))
			pc.Do(NewGet("h", "/chunked/2"), done("chunked2"))
		})
		w.sim.Run()
		return events, dones
	}
	realEvents, realDones := run(false)
	blankEvents, blankDones := run(true)
	if len(realDones) != 4 {
		t.Fatalf("materialised run completed %d of 4 responses: %v", len(realDones), realDones)
	}
	if !reflect.DeepEqual(realDones, blankDones) {
		t.Fatalf("completions differ:\nreal  %v\nblank %v", realDones, blankDones)
	}
	if len(realEvents) != len(blankEvents) {
		t.Fatalf("client saw %d segments materialised, %d content-free", len(realEvents), len(blankEvents))
	}
	for i := range realEvents {
		if realEvents[i] != blankEvents[i] {
			t.Fatalf("segment %d differs:\nreal  %+v\nblank %+v", i, realEvents[i], blankEvents[i])
		}
	}
}
