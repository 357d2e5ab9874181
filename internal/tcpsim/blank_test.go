package tcpsim

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fesplit/internal/simnet"
)

// Content-free bytes (Conn.SendBlank) must be invisible to the protocol:
// a stream that mixes real and content-free writes is segmented, timed,
// acknowledged and recovered exactly like the same byte counts sent as
// real bytes. These tests run each scenario both ways and diff the tap
// transcripts, then check what the receiver was handed.

// blankWrite is one server-side write: head real bytes, then blank
// content-free ones, then tail real bytes, issued after a delay.
type blankWrite struct {
	after             time.Duration
	head, blank, tail int
}

// blankScenario is a transfer (a fastScenario's path and TCP options)
// whose stream is a fixed schedule of writes, run over conns sequential
// connections on recycling endpoints.
type blankScenario struct {
	fastScenario
	conns  int
	writes []blankWrite
}

func randBlankScenario(r *rand.Rand) blankScenario {
	s := blankScenario{fastScenario: randScenario(r), conns: 1 + r.Intn(3)}
	s.echo = false
	left := s.size
	for left > 0 {
		w := blankWrite{after: time.Duration(r.Intn(4)) * time.Duration(r.Intn(30)) * time.Millisecond}
		switch r.Intn(4) {
		case 0: // real bytes only, e.g. a header
			w.head = 1 + r.Intn(600)
		case 1: // a bare content-free run
			w.blank = 1 + r.Intn(40<<10)
		default: // framed, like an HTTP chunk
			w.head, w.blank, w.tail = 1+r.Intn(12), 1+r.Intn(40<<10), 2
		}
		s.writes = append(s.writes, w)
		left -= w.head + w.blank + w.tail
	}
	return s
}

// run executes the scenario with the content-free ranges really
// content-free (blank) or filled with bytes. It returns the transcript
// and, per connection, the stream the client reassembled (content-free
// deliveries as zeros) and how many bytes reached OnBlank.
func (s blankScenario) run(t *testing.T, blank bool) (tr *transcript, streams [][]byte, blanked int) {
	t.Helper()
	sim := simnet.New(s.seed)
	n := simnet.NewNetwork(sim)
	pp := simnet.PathParams{Delay: s.delay, Jitter: s.jitter, LossRate: s.lossRate, Bandwidth: s.bandwidth}
	if s.useGilbert {
		g := s.gilbert
		pp.Gilbert = &g
	}
	n.SetLink("c", "s", pp)
	cfg := Config{MSS: s.mss, InitialCwnd: s.iw, DelayedAck: s.delayedAck, SACK: s.sack, RecycleConns: true}
	client := NewEndpoint(n, "c", cfg)
	server := NewEndpoint(n, "s", cfg)
	tr = &transcript{}
	client.Tap, server.Tap = tr.tap("c"), tr.tap("s")

	if _, err := server.Listen(80, func(c *Conn) {
		var at time.Duration
		for i, w := range s.writes {
			w, last := w, i == len(s.writes)-1
			at += w.after
			sim.Schedule(at, func() {
				head, tail := realBytes(w.head, 'h'), realBytes(w.tail, 't')
				if blank {
					c.SendBlank(head, w.blank, tail)
				} else {
					c.Send(append(append(head, realBytes(w.blank, 'b')...), tail...))
				}
				if last {
					c.Close()
				}
			})
		}
	}); err != nil {
		t.Fatal(err)
	}
	var dial func(i int)
	dial = func(i int) {
		if i == s.conns {
			return
		}
		var got []byte
		c := client.Dial("s", 80)
		c.OnData = func(b []byte) { got = append(got, b...) }
		c.OnBlank = func(n int) {
			got = append(got, make([]byte, n)...)
			blanked += n
		}
		c.OnClose = func() {
			c.Close()
			streams = append(streams, got)
			tr.gotLen += len(got)
			// Past every pending RTO check, so the next dial reuses this
			// connection object: stale content-free state would show.
			sim.Schedule(5*time.Second, func() { dial(i + 1) })
		}
	}
	dial(0)
	sim.Run()
	tr.finalAt = sim.Now()
	return tr, streams, blanked
}

func realBytes(n int, fill byte) []byte { return bytes.Repeat([]byte{fill}, n) }

// TestBlankDifferentialEquivalence: randomized paths (clean, i.i.d. and
// Gilbert loss, jitter, bandwidth), TCP options (MSS, IW, SACK, delayed
// ACK) and write schedules. Loss-free runs ride the fast lane; hole
// retransmissions and go-back-N cut segments differently from their
// first transmission, which is what produces mixed segments.
func TestBlankDifferentialEquivalence(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 12
	}
	r := rand.New(rand.NewSource(1717))
	blankedTotal := 0
	for i := 0; i < iters; i++ {
		s := randBlankScenario(r)
		realTr, realStreams, _ := s.run(t, false)
		blankTr, blankStreams, blanked := s.run(t, true)
		if d := realTr.diff(blankTr); d != "" {
			t.Fatalf("iter %d scenario %+v diverged: %s", i, s, d)
		}
		if len(blankStreams) != s.conns || len(realStreams) != s.conns {
			t.Fatalf("iter %d: %d/%d connections completed, want %d", i, len(realStreams), len(blankStreams), s.conns)
		}
		// What the receiver reassembles: real bytes where real bytes were
		// sent, and nothing but zeros in the content-free ranges — whether
		// they arrived through OnBlank or inside a mixed segment.
		var want []byte
		for _, w := range s.writes {
			want = append(append(append(want, realBytes(w.head, 'h')...), make([]byte, w.blank)...), realBytes(w.tail, 't')...)
		}
		for c, got := range blankStreams {
			if !bytes.Equal(got, want) {
				t.Fatalf("iter %d conn %d: reassembled stream differs from the writes (%d vs %d bytes)", i, c, len(got), len(want))
			}
		}
		blankedTotal += blanked
	}
	if blankedTotal == 0 {
		t.Fatal("no content-free byte ever reached OnBlank: the scenarios exercise nothing")
	}
}

// TestBlankOutOfOrderNeverPooled walks a content-free segment through
// every receive branch — stored out of order, SACKed, drained behind
// the hole fill, partially overlapped by a retransmission — and checks
// it is accounted by length alone: no bytes held, no OnData.
func TestBlankOutOfOrderNeverPooled(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 5 * time.Millisecond}, Config{SACK: true})
	tn.echoServer(t)
	c := tn.client.Dial("s", 80)
	tn.sim.Run()
	if c.st != stateEstablished {
		t.Fatal("not established")
	}
	var blanks []int
	c.OnBlank = func(n int) { blanks = append(blanks, n) }
	c.OnData = func(b []byte) { t.Fatalf("OnData got %d bytes of a content-free stream", len(b)) }
	var acks []Segment
	var lastSACK []SACKBlock
	tn.client.Tap = func(ev TapEvent, data []byte, sack []SACKBlock) {
		if ev.Dir == DirSend {
			acks = append(acks, ev.Segment)
			lastSACK = slices.Clone(sack)
		}
	}
	base := c.rcvNxt
	seg := func(off, n int) Segment {
		return Segment{SrcPort: 80, DstPort: c.localPort, Flags: FlagACK, Seq: base + uint64(off), Ack: c.sndUna, Len: uint32(n)}
	}

	c.handle(seg(1000, 500), nil, nil) // beyond a hole: stored, SACKed
	if len(c.ooo) != 1 || c.ooo[0].seq != base+1000 || c.ooo[0].n != 500 || c.ooo[0].data != nil {
		t.Fatalf("out-of-order content-free segment stored as %+v", c.ooo)
	}
	if last := acks[len(acks)-1]; last.NSACK != 1 || len(lastSACK) != 1 || lastSACK[0] != (SACKBlock{base + 1000, base + 1500}) || last.Ack != base {
		t.Fatalf("dup ACK = %v SACK %v", last, lastSACK)
	}

	c.handle(seg(0, 1000), nil, nil) // the hole: delivered, then the stored run drains
	if len(blanks) != 2 || blanks[0] != 1000 || blanks[1] != 500 || c.rcvNxt != base+1500 || len(c.ooo) != 0 {
		t.Fatalf("after the hole fill: OnBlank %v, rcvNxt +%d, %d still buffered", blanks, c.rcvNxt-base, len(c.ooo))
	}

	c.handle(seg(1200, 800), nil, nil) // retransmission cut differently: only its new tail counts
	if len(blanks) != 3 || blanks[2] != 500 || c.rcvNxt != base+2000 {
		t.Fatalf("after the partial overlap: OnBlank %v, rcvNxt +%d", blanks, c.rcvNxt-base)
	}
	if got := c.Metrics().BytesReceived; got != 2000 {
		t.Fatalf("BytesReceived = %d, want 2000", got)
	}
}

// TestBlankMixedSegmentKeepsRealBytesInPlace: a segment whose range
// straddles real and content-free bytes is materialised once, real
// bytes at their offsets and zeros elsewhere; pure ranges of either
// kind cost nothing.
func TestBlankMixedSegmentKeepsRealBytesInPlace(t *testing.T) {
	c := &Conn{ep: &Endpoint{cfg: Config{}.withDefaults()}, sndEnd: 1}
	c.SendBlank([]byte("HEAD"), 10, []byte("MID"))
	c.SendBlank(nil, 5, []byte("TAIL"))
	if c.sndEnd != 1+4+10+3+5+4 || len(c.sndq) != 5 {
		t.Fatalf("sndEnd = %d, %d runs", c.sndEnd, len(c.sndq))
	}
	for _, tc := range []struct {
		seq, n uint64
		data   string // "" = content-free
	}{
		{1, 4, "HEAD"},
		{5, 10, ""},
		{7, 3, ""},
		{3, 6, "AD\x00\x00\x00\x00"},
		{13, 7, "\x00\x00MID\x00\x00"},
		{1, 26, "HEAD" + string(make([]byte, 10)) + "MID" + string(make([]byte, 5)) + "TAIL"},
		{23, 4, "TAIL"},
	} {
		data := c.payload(tc.seq, tc.n)
		if string(data) != tc.data || (tc.data == "") != (data == nil) {
			t.Fatalf("payload(%d,%d) = %q; want %q", tc.seq, tc.n, data, tc.data)
		}
	}
	// Acknowledging into the middle of a run drops the runs below it and
	// leaves that one whole; offsets still map.
	c.sndNxt = c.sndEnd
	c.advanceUna(9)
	if data := c.payload(13, 7); string(data) != "\x00\x00MID\x00\x00" || c.sndUna != 9 || len(c.sndq) != 4 || c.sndq[0].seq != 5 {
		t.Fatalf("after ack 9: payload(13,7) = %q, sndUna %d, runs %+v", data, c.sndUna, c.sndq)
	}
	c.advanceUna(27)
	if len(c.sndq) != 0 || c.sndEnd != 27 {
		t.Fatalf("after the final ack: %d runs, sndEnd %d", len(c.sndq), c.sndEnd)
	}
	for i, r := range c.sndq[:cap(c.sndq)] {
		if r.data != nil {
			t.Fatalf("acknowledged run %d still pins %q", i, r.data)
		}
	}
}
