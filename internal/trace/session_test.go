package trace

import (
	"strings"
	"testing"
	"time"

	"fesplit/internal/capture"
	"fesplit/internal/tcpsim"
)

// mkEvents builds a synthetic client-side session: handshake at RTT,
// GET at t1, ACK at t1+RTT, then response chunks at given times/offsets;
// and the bytes its events captured.
type chunkSpec struct {
	at    time.Duration
	seq   uint64 // TCP seq (stream offset + 1)
	data  []byte
	retra bool
}

func mkEvents(rtt time.Duration, chunks []chunkSpec) ([]capture.Event, [][]byte) {
	get := []byte("GET / HTTP/1.1\r\n\r\n")
	evs := []capture.Event{
		{Time: 0, Dir: tcpsim.DirSend, Flags: tcpsim.FlagSYN, SrcPort: 40000, DstPort: 80},
		{Time: rtt, Dir: tcpsim.DirRecv, Flags: tcpsim.FlagSYN | tcpsim.FlagACK, Ack: 1, SrcPort: 80, DstPort: 40000},
		{Time: rtt, Dir: tcpsim.DirSend, Flags: tcpsim.FlagACK, Seq: 1, Ack: 1, SrcPort: 40000, DstPort: 80},
		{Time: rtt, Dir: tcpsim.DirSend, Flags: tcpsim.FlagACK, Seq: 1, Ack: 1, Len: uint32(len(get)), Cap: uint32(len(get)),
			SrcPort: 40000, DstPort: 80},
		{Time: 2 * rtt, Dir: tcpsim.DirRecv, Flags: tcpsim.FlagACK, Seq: 1, Ack: 19, SrcPort: 80, DstPort: 40000},
	}
	pays := [][]byte{get}
	for _, c := range chunks {
		ev := capture.Event{Time: c.at, Dir: tcpsim.DirRecv, Flags: tcpsim.FlagACK, Seq: c.seq, Ack: 19,
			Len: uint32(len(c.data)), Cap: uint32(len(c.data)), SrcPort: 80, DstPort: 40000}
		pays = append(pays, c.data)
		if c.retra {
			ev.Flags |= capture.FlagRetrans
		}
		evs = append(evs, ev)
	}
	return evs, pays
}

func first[A, B any](a A, _ B) A { return a }

func key() capture.ConnKey {
	return capture.ConnKey{Remote: "fe", LocalPort: 40000, RemotePort: 80}
}

func TestParseTimeline(t *testing.T) {
	rtt := 20 * time.Millisecond
	static := []byte("SSSSSSSSSS") // 10 bytes
	dynamic := []byte("DDDDDDDD")
	evs, pays := mkEvents(rtt, []chunkSpec{
		{at: 25 * time.Millisecond, seq: 1, data: static},
		{at: 100 * time.Millisecond, seq: 11, data: dynamic},
	})
	s, err := ParseCaptured(key(), evs, pays)
	if err != nil {
		t.Fatal(err)
	}
	if s.RTT != rtt {
		t.Fatalf("RTT = %v", s.RTT)
	}
	if s.TB != 0 || s.T1 != rtt || s.T2 != 2*rtt {
		t.Fatalf("tb/t1/t2 = %v/%v/%v", s.TB, s.T1, s.T2)
	}
	if s.T3 != 25*time.Millisecond || s.TE != 100*time.Millisecond {
		t.Fatalf("t3/te = %v/%v", s.T3, s.TE)
	}
	if string(s.Payload()) != "SSSSSSSSSSDDDDDDDD" || !s.PayloadComplete {
		t.Fatalf("payload = %q, complete %v", s.Payload(), s.PayloadComplete)
	}
	// Without its captured bytes the session has the timeline only.
	if bare, err := Parse(key(), evs); err != nil || bare.Payload() != nil || bare.PayloadComplete || bare.TE != s.TE {
		t.Fatalf("Parse without payloads = %v, %v", bare, err)
	}
	if err := s.Locate(10); err != nil {
		t.Fatal(err)
	}
	if s.T4 != 25*time.Millisecond || s.T5 != 100*time.Millisecond {
		t.Fatalf("t4/t5 = %v/%v", s.T4, s.T5)
	}
	if overall := s.TE - s.TB; overall != 100*time.Millisecond {
		t.Fatalf("te - tb = %v", overall)
	}
	if s.boundary != 10 {
		t.Fatalf("boundary = %d", s.boundary)
	}
}

func TestCoalescedBoundaryGivesZeroDelta(t *testing.T) {
	// Large RTT: last static byte and first dynamic byte in ONE packet.
	evs, pays := mkEvents(200*time.Millisecond, []chunkSpec{
		{at: 410 * time.Millisecond, seq: 1, data: []byte("SSSSSSSSDD")},
		{at: 411 * time.Millisecond, seq: 11, data: []byte("DDDDDD")},
	})
	s, err := ParseCaptured(key(), evs, pays)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Locate(8); err != nil {
		t.Fatal(err)
	}
	if tdelta := s.T5 - s.T4; tdelta != 0 {
		t.Fatalf("coalesced Tdelta = %v, want 0", tdelta)
	}
}

func TestRetransmissionFirstArrivalWins(t *testing.T) {
	// Offset 0..10 arrives at 25ms and again (retransmitted) at 300ms.
	evs, pays := mkEvents(20*time.Millisecond, []chunkSpec{
		{at: 25 * time.Millisecond, seq: 1, data: []byte("0123456789")},
		{at: 300 * time.Millisecond, seq: 1, data: []byte("0123456789"), retra: true},
		{at: 310 * time.Millisecond, seq: 11, data: []byte("XY")},
	})
	s, err := ParseCaptured(key(), evs, pays)
	if err != nil {
		t.Fatal(err)
	}
	at, err := s.ArrivalOf(5)
	if err != nil {
		t.Fatal(err)
	}
	if at != 25*time.Millisecond {
		t.Fatalf("first arrival = %v", at)
	}
	if s.Retransmissions != 1 {
		t.Fatalf("retrans = %d", s.Retransmissions)
	}
}

func TestOutOfOrderReassembly(t *testing.T) {
	evs, pays := mkEvents(10*time.Millisecond, []chunkSpec{
		{at: 30 * time.Millisecond, seq: 6, data: []byte("WORLD")},
		{at: 35 * time.Millisecond, seq: 1, data: []byte("HELLO")},
	})
	s, err := ParseCaptured(key(), evs, pays)
	if err != nil {
		t.Fatal(err)
	}
	if string(s.Payload()) != "HELLOWORLD" {
		t.Fatalf("payload = %q", s.Payload())
	}
	at0, _ := s.ArrivalOf(0)
	at5, _ := s.ArrivalOf(5)
	if at0 != 35*time.Millisecond || at5 != 30*time.Millisecond {
		t.Fatalf("arrivals = %v / %v", at0, at5)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(key(), nil); err != ErrNoHandshake {
		t.Fatalf("empty session err = %v", err)
	}
	// Handshake only.
	evs, _ := mkEvents(10*time.Millisecond, nil)
	if _, err := Parse(key(), evs[:3]); err != ErrNoRequest {
		t.Fatalf("no-request err = %v", err)
	}
	// Handshake + GET but no response payload.
	if _, err := Parse(key(), evs); err != ErrNoResponse {
		t.Fatalf("no-response err = %v", err)
	}
}

func TestLocateBounds(t *testing.T) {
	evs, pays := mkEvents(10*time.Millisecond, []chunkSpec{
		{at: 15 * time.Millisecond, seq: 1, data: []byte("ABCD")},
	})
	s, err := ParseCaptured(key(), evs, pays)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, 0, 4, 100} {
		if err := s.Locate(bad); err != ErrBoundaryOutside {
			t.Fatalf("Locate(%d) err = %v", bad, err)
		}
	}
	if _, err := s.ArrivalOf(99); err != ErrNeverReceived {
		t.Fatalf("ArrivalOf(99) err = %v", err)
	}
	// A record whose boundary cannot be located is common in a study
	// (the parse saw no byte past it); refusing it must cost nothing.
	if n := testing.AllocsPerRun(10, func() { s.Locate(100); s.ArrivalOf(99) }); n != 0 {
		t.Errorf("refusing a boundary allocates %v objects, want 0", n)
	}
}

func TestTemporalBoundaryDetectsGap(t *testing.T) {
	// Static burst at 25ms, dynamic burst at 250ms: a dominant gap.
	evs, pays := mkEvents(20*time.Millisecond, []chunkSpec{
		{at: 25 * time.Millisecond, seq: 1, data: []byte("SSSS")},
		{at: 26 * time.Millisecond, seq: 5, data: []byte("SSSS")},
		{at: 250 * time.Millisecond, seq: 9, data: []byte("DDDD")},
		{at: 251 * time.Millisecond, seq: 13, data: []byte("DDDD")},
	})
	s, err := ParseCaptured(key(), evs, pays)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := s.TemporalBoundary(10*time.Millisecond, 3)
	if !ok {
		t.Fatal("gap not detected")
	}
	if b != 8 {
		t.Fatalf("boundary = %d, want 8", b)
	}
}

func TestTemporalBoundaryAmbiguous(t *testing.T) {
	// Uniformly spaced packets: no dominant gap.
	var chunks []chunkSpec
	for i := 0; i < 6; i++ {
		chunks = append(chunks, chunkSpec{
			at:   time.Duration(25+10*i) * time.Millisecond,
			seq:  uint64(1 + 4*i),
			data: []byte("XXXX"),
		})
	}
	s, err := Parse(key(), first(mkEvents(20*time.Millisecond, chunks)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.TemporalBoundary(5*time.Millisecond, 3); ok {
		t.Fatal("ambiguous clustering accepted")
	}
	// Single packet: no gaps at all.
	s2, err := Parse(key(), first(mkEvents(20*time.Millisecond, []chunkSpec{
		{at: 25 * time.Millisecond, seq: 1, data: []byte("ONLY")},
	})))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.TemporalBoundary(time.Millisecond, 2); ok {
		t.Fatal("single-packet session clustered")
	}
}

func TestSessionString(t *testing.T) {
	evs, pays := mkEvents(10*time.Millisecond, []chunkSpec{
		{at: 15 * time.Millisecond, seq: 1, data: []byte("ABCDEFGH")},
	})
	s, err := ParseCaptured(key(), evs, pays)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Locate(4); err != nil {
		t.Fatal(err)
	}
	out := s.String()
	for _, want := range []string{"rtt=10ms", "bytes=8", "boundary=4", "complete=true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String missing %q: %s", want, out)
		}
	}
}
