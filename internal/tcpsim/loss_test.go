package tcpsim

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"fesplit/internal/simnet"
)

// lossyWorld wires client/server with independent per-direction loss.
func lossyWorld(seed int64, c2s, s2c float64) (*simnet.Sim, *Endpoint, *Endpoint) {
	sim := simnet.New(seed)
	n := simnet.NewNetwork(sim)
	n.SetPath("c", "s", simnet.PathParams{Delay: 15 * time.Millisecond, LossRate: c2s})
	n.SetPath("s", "c", simnet.PathParams{Delay: 15 * time.Millisecond, LossRate: s2c})
	return sim, NewEndpoint(n, "c", Config{}), NewEndpoint(n, "s", Config{})
}

func TestSynAckLossRecovered(t *testing.T) {
	// Drop the first two server→client packets deterministically via a
	// tap-based gate.
	sim := simnet.New(3)
	n := simnet.NewNetwork(sim)
	n.SetPath("c", "s", simnet.PathParams{Delay: 10 * time.Millisecond})
	// Custom handler: a dropping middlebox host between the paths is
	// overkill; instead use heavy but finite loss on s→c and verify
	// eventual connection.
	n.SetPath("s", "c", simnet.PathParams{Delay: 10 * time.Millisecond, LossRate: 0.5})
	client := NewEndpoint(n, "c", Config{})
	server := NewEndpoint(n, "s", Config{})
	if _, err := server.Listen(80, func(conn *Conn) {
		conn.Send([]byte("payload"))
		conn.Close()
	}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	closed := false
	conn := client.Dial("s", 80)
	conn.OnData = func(b []byte) { got.Write(b) }
	conn.OnClose = func() { closed = true; conn.Close() }
	sim.Run()
	if !closed || got.String() != "payload" {
		t.Fatalf("50%% s→c loss: closed=%v got=%q", closed, got.String())
	}
}

// retryTransfer sends size bytes server→client over lossyWorld and
// returns the payload, what the client received, and whether any
// connection of either side — the server's half-open ones included —
// gave up after its retry budget of maxBackoffs unanswered
// retransmissions.
func retryTransfer(seed int64, loss float64, size int) (payload, got []byte, gaveUp bool) {
	sim, client, server := lossyWorld(seed, loss, loss)
	payload = make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 2654435761)
	}
	if _, err := server.Listen(80, func(c *Conn) {
		c.Send(payload)
		c.Close()
	}); err != nil {
		panic(err)
	}
	var conns []*Conn
	server.Tap = func(TapEvent, []byte, []SACKBlock) {
		for _, c := range server.conns {
			if !slices.Contains(conns, c) {
				conns = append(conns, c)
			}
		}
	}
	var buf bytes.Buffer
	conn := client.Dial("s", 80)
	conn.OnData = func(b []byte) { buf.Write(b) }
	conn.OnClose = func() { conn.Close() }
	sim.Run()
	for _, c := range append(conns, conn) {
		gaveUp = gaveUp || c.backoffs > maxBackoffs
	}
	return payload, buf.Bytes(), gaveUp
}

func TestStreamIntegrityQuickRandomLoss(t *testing.T) {
	// Property: for any seed and loss rate ≤ 20%, the delivered stream
	// equals the sent stream (TCP reliability invariant) — or, when a
	// connection spent its retry budget, is a prefix of it.
	f := func(seed int64, lossBase uint8, sizeKB uint8) bool {
		payload, got, gaveUp := retryTransfer(seed, float64(lossBase%20)/100, (int(sizeKB)%64+1)<<10)
		if gaveUp {
			return bytes.HasPrefix(payload, got)
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRetryBudgetAbortKeepsPrefix pins two inputs on which the property
// above once failed. In each, every retransmission of one run of RTOs
// is lost, or reaches the client and has its re-ACK lost, until the
// server gives up: mid-stream (13% loss: 5 of 8 retransmissions and all
// 3 re-ACKs lost) and in SYN-RCVD (19% loss: the handshake's ACK and
// all 4 re-ACKs of delivered SYN-ACKs lost). The client keeps the
// prefix it received.
func TestRetryBudgetAbortKeepsPrefix(t *testing.T) {
	for _, tc := range []struct {
		seed       int64
		loss       float64
		size, want int
	}{
		{7571746219536066632, 0.13, 50 << 10, 24820},
		{937, 0.19, 3 << 10, 0},
	} {
		payload, got, gaveUp := retryTransfer(tc.seed, tc.loss, tc.size)
		if !gaveUp || !bytes.Equal(got, payload[:tc.want]) {
			t.Errorf("seed %d, loss %g: gave up %v, delivered %d of %d bytes (prefix %v); want a retry-budget abort after %d",
				tc.seed, tc.loss, gaveUp, len(got), tc.size, bytes.HasPrefix(payload, got), tc.want)
		}
	}
}

func TestNoDuplicateDeliveryUnderLoss(t *testing.T) {
	// Count delivered bytes: must equal the payload exactly (no
	// duplicates reach the application even when segments retransmit).
	sim, client, server := lossyWorld(11, 0.08, 0.08)
	payload := make([]byte, 80<<10)
	if _, err := server.Listen(80, func(c *Conn) {
		c.Send(payload)
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	conn := client.Dial("s", 80)
	conn.OnData = func(b []byte) { delivered += len(b) }
	conn.OnClose = func() { conn.Close() }
	sim.Run()
	if delivered != len(payload) {
		t.Fatalf("delivered %d bytes of %d", delivered, len(payload))
	}
}

func TestFINLossStillCloses(t *testing.T) {
	// Heavy loss around connection teardown: both sides must still
	// terminate (bounded retries), with the stream intact when the
	// close signal survives.
	sim, client, server := lossyWorld(17, 0.3, 0.3)
	if _, err := server.Listen(80, func(c *Conn) {
		c.Send([]byte("x"))
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	conn := client.Dial("s", 80)
	conn.OnData = func([]byte) {}
	conn.OnClose = func() { conn.Close() }
	sim.Run() // must terminate — bounded retransmissions guarantee it
	if sim.Pending() != 0 {
		t.Fatalf("events leaked: %d", sim.Pending())
	}
}

func TestDelayedAckTimerFires(t *testing.T) {
	// A single small segment with delayed ACKs: the ACK must arrive
	// after the delayed-ack timeout, not immediately, and not never.
	cfg := Config{DelayedAck: true}
	sim := simnet.New(5)
	n := simnet.NewNetwork(sim)
	n.SetLink("c", "s", simnet.PathParams{Delay: 5 * time.Millisecond})
	client := NewEndpoint(n, "c", cfg)
	server := NewEndpoint(n, "s", cfg)
	var ackAt, dataAt time.Duration
	server.Tap = func(ev TapEvent, data []byte, sack []SACKBlock) {
		if ev.Dir == DirRecv && len(data) == 0 &&
			ev.Segment.Flags == FlagACK && ev.Segment.Ack > 1 && ackAt == 0 {
			ackAt = ev.Time
		}
		if ev.Dir == DirSend && len(data) > 0 && dataAt == 0 {
			dataAt = ev.Time
		}
	}
	if _, err := server.Listen(80, func(c *Conn) {
		c.Send([]byte("one small segment"))
	}); err != nil {
		t.Fatal(err)
	}
	conn := client.Dial("s", 80)
	conn.OnData = func([]byte) {}
	sim.RunUntil(2 * time.Second)
	if dataAt == 0 || ackAt == 0 {
		t.Fatalf("no data/ack observed: data=%v ack=%v", dataAt, ackAt)
	}
	// ACK = data arrival (dataAt + 5ms) + ~40ms delayed-ack timeout
	// + 5ms return.
	gap := ackAt - dataAt
	if gap < 45*time.Millisecond || gap > 70*time.Millisecond {
		t.Fatalf("delayed ACK gap = %v, want ~50ms", gap)
	}
}

func TestRetransmissionsMarkedInTap(t *testing.T) {
	sim, client, server := lossyWorld(23, 0, 0.1)
	var retrans int
	server.Tap = func(ev TapEvent, data []byte, sack []SACKBlock) {
		if ev.Dir == DirSend && ev.Segment.Retrans {
			retrans++
		}
	}
	payload := make([]byte, 120<<10)
	if _, err := server.Listen(80, func(c *Conn) {
		c.Send(payload)
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	got := 0
	conn := client.Dial("s", 80)
	conn.OnData = func(b []byte) { got += len(b) }
	conn.OnClose = func() { conn.Close() }
	sim.Run()
	if got != len(payload) {
		t.Fatalf("incomplete: %d", got)
	}
	if retrans == 0 {
		t.Fatal("no retransmissions marked under 10% loss")
	}
}

func TestGilbertBurstLossTransfer(t *testing.T) {
	// End-to-end transfer over a bursty (Gilbert–Elliott) wireless-like
	// path: stream must stay intact.
	g := simnet.WirelessGilbert()
	sim := simnet.New(29)
	n := simnet.NewNetwork(sim)
	n.SetLink("c", "s", simnet.PathParams{Delay: 20 * time.Millisecond, Gilbert: &g})
	client := NewEndpoint(n, "c", Config{})
	server := NewEndpoint(n, "s", Config{})
	payload := make([]byte, 60<<10)
	for i := range payload {
		payload[i] = byte(i >> 3)
	}
	if _, err := server.Listen(80, func(c *Conn) {
		c.Send(payload)
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	conn := client.Dial("s", 80)
	conn.OnData = func(b []byte) { got.Write(b) }
	conn.OnClose = func() { conn.Close() }
	sim.Run()
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("burst-loss transfer corrupted: %d/%d bytes", got.Len(), len(payload))
	}
}

func TestOptionMatrixStreamIntegrity(t *testing.T) {
	// Every combination of SACK × DelayedAck × IW must deliver the
	// exact stream under moderate loss.
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, sack := range []bool{false, true} {
		for _, dack := range []bool{false, true} {
			for _, iw := range []int{1, 3, 10} {
				cfg := Config{SACK: sack, DelayedAck: dack, InitialCwnd: iw}
				sim := simnet.New(77)
				n := simnet.NewNetwork(sim)
				n.SetLink("c", "s", simnet.PathParams{
					Delay: 12 * time.Millisecond, LossRate: 0.05,
				})
				client := NewEndpoint(n, "c", cfg)
				server := NewEndpoint(n, "s", cfg)
				if _, err := server.Listen(80, func(c *Conn) {
					c.Send(payload)
					c.Close()
				}); err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				conn := client.Dial("s", 80)
				conn.OnData = func(b []byte) { got.Write(b) }
				conn.OnClose = func() { conn.Close() }
				sim.Run()
				if !bytes.Equal(got.Bytes(), payload) {
					t.Fatalf("sack=%v dack=%v iw=%d: corrupted (%d/%d bytes)",
						sack, dack, iw, got.Len(), len(payload))
				}
			}
		}
	}
}
