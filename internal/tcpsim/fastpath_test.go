package tcpsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fesplit/internal/simnet"
)

// The fast-forward engine's contract is exact equivalence: with
// SetFastPathEnabled(false) forcing every segment through the event
// heap, a scenario must produce bit-identical observable behaviour —
// every tap event at the same sim-time with the same segment, the same
// connection metrics, the same final clock. These tests run randomized
// and adversarially-timed scenarios both ways and diff the transcripts.

// obsEvent is a TapEvent reduced to comparable fields (Data collapses
// to its length; the stream-integrity tests already cover contents).
type obsEvent struct {
	at      time.Duration
	host    string
	dir     Dir
	remote  string
	flags   Flags
	seq     uint64
	ack     uint64
	dataLen int
	retrans bool
}

// transcript is everything observable about one scenario run.
type transcript struct {
	events  []obsEvent
	finalAt time.Duration
	clientM Metrics
	serverM Metrics
	gotLen  int
	doneAt  time.Duration
	// stats is the run's fast-path accounting — deliberately NOT part
	// of diff (the packet-path run has no epochs by construction); the
	// loss-boundary tests use it to prove a scenario exercised the lane.
	stats simnet.FastPathStats
}

// tap returns the Endpoint.Tap that appends host's events to tr.
func (tr *transcript) tap(host string) func(TapEvent) {
	return func(ev TapEvent) {
		tr.events = append(tr.events, obsEvent{
			at:      ev.Time,
			host:    host,
			dir:     ev.Dir,
			remote:  ev.Remote,
			flags:   ev.Segment.Flags,
			seq:     ev.Segment.Seq,
			ack:     ev.Segment.Ack,
			dataLen: ev.Segment.PayloadLen(),
			retrans: ev.Segment.Retrans,
		})
	}
}

// sends counts the segments host transmitted.
func (tr *transcript) sends(host string) int {
	n := 0
	for _, ev := range tr.events {
		if ev.host == host && ev.dir == DirSend {
			n++
		}
	}
	return n
}

func (tr *transcript) diff(other *transcript) string {
	if tr.finalAt != other.finalAt {
		return fmt.Sprintf("final sim time: %v vs %v", tr.finalAt, other.finalAt)
	}
	if tr.doneAt != other.doneAt {
		return fmt.Sprintf("transfer completion: %v vs %v", tr.doneAt, other.doneAt)
	}
	if tr.gotLen != other.gotLen {
		return fmt.Sprintf("bytes delivered: %d vs %d", tr.gotLen, other.gotLen)
	}
	if tr.clientM != other.clientM {
		return fmt.Sprintf("client metrics: %+v vs %+v", tr.clientM, other.clientM)
	}
	if tr.serverM != other.serverM {
		return fmt.Sprintf("server metrics: %+v vs %+v", tr.serverM, other.serverM)
	}
	if len(tr.events) != len(other.events) {
		return fmt.Sprintf("tap event count: %d vs %d", len(tr.events), len(other.events))
	}
	for i := range tr.events {
		if tr.events[i] != other.events[i] {
			return fmt.Sprintf("tap event %d: %+v vs %+v", i, tr.events[i], other.events[i])
		}
	}
	return ""
}

// fastScenario parameterizes one randomized transfer.
type fastScenario struct {
	seed       int64
	delay      time.Duration
	jitter     time.Duration
	lossRate   float64
	gilbert    simnet.GilbertParams // used when useGilbert
	useGilbert bool
	bandwidth  float64
	size       int
	mss        int
	iw         int
	delayedAck bool
	sack       bool
	echo       bool // client also uploads (bidirectional)
}

func randScenario(r *rand.Rand) fastScenario {
	s := fastScenario{
		seed:  r.Int63(),
		delay: time.Duration(1+r.Intn(60)) * time.Millisecond,
		size:  1 + r.Intn(300<<10),
		mss:   500 + r.Intn(1200),
		iw:    1 + r.Intn(10),
	}
	if r.Intn(2) == 0 {
		s.jitter = time.Duration(r.Intn(5)) * time.Millisecond
	}
	switch r.Intn(5) {
	case 0:
		s.lossRate = 0 // clean: fast path carries the whole transfer
	case 1:
		s.lossRate = 0.02 // lossy: recovery exchanges ride the lane
	case 2:
		s.lossRate = 0.002 // rare loss
	case 3, 4:
		// Bursty Gilbert loss with randomized parameters: the fast lane
		// must consume the chain's two uniforms per segment in exactly
		// the packet path's order.
		s.useGilbert = true
		s.gilbert = simnet.GilbertParams{
			PGoodToBad: 0.001 + 0.05*r.Float64(),
			PBadToGood: 0.05 + 0.45*r.Float64(),
			LossGood:   0.01 * r.Float64(),
			LossBad:    0.1 + 0.5*r.Float64(),
		}
	}
	if r.Intn(2) == 0 {
		s.bandwidth = float64(1+r.Intn(20)) * 1e6
	}
	s.delayedAck = r.Intn(2) == 0
	s.sack = r.Intn(2) == 0
	s.echo = r.Intn(4) == 0
	return s
}

// run executes the scenario once and returns its transcript. mutate,
// when non-nil, is called once per run with the network and a hook
// registrar so adversarial tests can inject topology changes at exact
// points in the segment stream.
func (s fastScenario) run(t *testing.T, fast bool, mutate func(*simnet.Network, *testNet)) *transcript {
	t.Helper()
	sim := simnet.New(s.seed)
	n := simnet.NewNetwork(sim)
	pp := simnet.PathParams{
		Delay: s.delay, Jitter: s.jitter, LossRate: s.lossRate, Bandwidth: s.bandwidth,
	}
	if s.useGilbert {
		g := s.gilbert
		pp.Gilbert = &g
	}
	n.SetLink("c", "s", pp)
	n.SetFastPathEnabled(fast)
	cfg := Config{MSS: s.mss, InitialCwnd: s.iw, DelayedAck: s.delayedAck, SACK: s.sack}
	tn := &testNet{
		sim:    sim,
		net:    n,
		client: NewEndpoint(n, "c", cfg),
		server: NewEndpoint(n, "s", cfg),
	}
	tr := &transcript{}
	tn.client.Tap = tr.tap("c")
	tn.server.Tap = tr.tap("s")

	payload := make([]byte, s.size)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	var srv *Conn
	if _, err := tn.server.Listen(80, func(c *Conn) {
		srv = c
		c.Send(payload)
		if s.echo {
			c.OnData = func([]byte) {}
		}
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	c := tn.client.Dial("s", 80)
	if s.echo {
		c.OnConnect = func() { c.Send(make([]byte, s.size/4+1)) }
	}
	c.OnData = func(b []byte) {
		tr.gotLen += len(b)
		if tr.gotLen == s.size {
			tr.doneAt = sim.Now()
		}
	}
	c.OnClose = func() { c.Close() }
	if mutate != nil {
		mutate(n, tn)
	}
	sim.Run()
	tr.finalAt = sim.Now()
	tr.clientM = c.Metrics()
	if srv != nil {
		tr.serverM = srv.Metrics()
	}
	tr.stats = n.FastPathStats()
	return tr
}

// TestFastPathDifferentialEquivalence is the engine's main gate: many
// randomized scenarios across the (RTT, jitter, loss, bandwidth, size,
// cwnd, MSS, SACK, delayed-ACK, direction) space, each run with the
// fast path enabled and disabled, must produce identical transcripts.
func TestFastPathDifferentialEquivalence(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 12
	}
	r := rand.New(rand.NewSource(4242))
	for i := 0; i < iters; i++ {
		s := randScenario(r)
		fastTr := s.run(t, true, nil)
		slowTr := s.run(t, false, nil)
		if d := fastTr.diff(slowTr); d != "" {
			t.Fatalf("iter %d scenario %+v diverged: %s", i, s, d)
		}
		if fastTr.gotLen != s.size {
			t.Fatalf("iter %d scenario %+v incomplete: %d/%d bytes", i, s, fastTr.gotLen, s.size)
		}
	}
}

// TestFastPathFallbackBoundary injects a total-loss window starting at
// the epoch's first, middle, and last data segment. The topology flip
// revokes the sender's path handle mid-epoch, forcing the fallback
// transition at each boundary; timings must still match the packet
// path exactly, including the retransmission schedule through the loss
// window.
func TestFastPathFallbackBoundary(t *testing.T) {
	const totalSegs = 70 // ~100KB at MSS 1460
	for _, boundary := range []struct {
		name string
		seg  int
	}{
		{"first", 0},
		{"middle", totalSegs / 2},
		{"last", totalSegs - 1},
	} {
		t.Run(boundary.name, func(t *testing.T) {
			s := fastScenario{
				seed:  99,
				delay: 15 * time.Millisecond,
				size:  totalSegs * 1460,
				mss:   1460,
				iw:    10,
			}
			mutate := func(n *simnet.Network, tn *testNet) {
				sent := 0
				inner := tn.server.Tap
				tn.server.Tap = func(ev TapEvent) {
					inner(ev)
					if ev.Dir == DirSend && len(ev.Segment.Data) > 0 && !ev.Segment.Retrans {
						if sent == boundary.seg {
							// Defer to after the current dispatch so both
							// lanes see the flip at the same stream
							// position (mid-send mutation would race the
							// already-resolved handle).
							tn.sim.Schedule(0, func() {
								lossy := simnet.PathParams{Delay: 15 * time.Millisecond, LossRate: 1}
								n.SetPath("s", "c", lossy)
								tn.sim.Schedule(120*time.Millisecond, func() {
									n.SetPath("s", "c", simnet.PathParams{Delay: 15 * time.Millisecond})
								})
							})
						}
						sent++
					}
				}
			}
			fastTr := s.run(t, true, mutate)
			slowTr := s.run(t, false, mutate)
			if d := fastTr.diff(slowTr); d != "" {
				t.Fatalf("boundary %s diverged: %s", boundary.name, d)
			}
			if fastTr.gotLen != s.size {
				t.Fatalf("boundary %s incomplete: %d/%d", boundary.name, fastTr.gotLen, s.size)
			}
			if fastTr.clientM.Retransmits == 0 && fastTr.serverM.Retransmits == 0 {
				t.Fatalf("boundary %s: loss window produced no retransmissions; injection missed", boundary.name)
			}
		})
	}
}

// TestFastPathStatsAccounting checks the counters count what they say:
// a clean bulk transfer enters at least one epoch and never falls back;
// on a lossy path every segment either endpoint sends is either queued
// on the lane or dropped at send time, and a drop is not a fallback.
func TestFastPathStatsAccounting(t *testing.T) {
	s := fastScenario{seed: 7, delay: 10 * time.Millisecond, size: 100 << 10, mss: 1460, iw: 10}
	var n *simnet.Network
	s.run(t, true, func(net *simnet.Network, tn *testNet) { n = net })
	st := n.FastPathStats()
	if st.Epochs == 0 || st.Segments == 0 || st.Bytes == 0 {
		t.Fatalf("clean transfer recorded no fast-path activity: %+v", st)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("clean transfer recorded fallbacks: %+v", st)
	}

	// Lossy from the start: the whole conversation, recovery included,
	// is lane traffic.
	s2 := s
	s2.lossRate = 0.05
	s2.seed = 8
	tr2 := s2.run(t, true, nil)
	st2 := tr2.stats
	if st2.LossDrops == 0 || st2.Fallbacks != 0 {
		t.Fatalf("5%% loss: want send-time lane drops and no fallback, got %+v", st2)
	}
	if sent := uint64(tr2.sends("c") + tr2.sends("s")); st2.Segments+st2.LossDrops != sent {
		t.Fatalf("lane segments %d + lane drops %d != %d segments sent",
			st2.Segments, st2.LossDrops, sent)
	}
}

// TestFastPathSlowStartTimingPreserved pins a known-good absolute
// timing (from the pre-fast-path engine) and checks both lanes still
// land on it: a 21KB slow-start ramp completes between 3 and 6 RTT.
func TestFastPathSlowStartTimingPreserved(t *testing.T) {
	for _, fast := range []bool{true, false} {
		s := fastScenario{seed: 1, delay: 25 * time.Millisecond, size: 21000, mss: 1000, iw: 3}
		tr := s.run(t, fast, nil)
		rtt := 50 * time.Millisecond
		if tr.doneAt < 3*rtt || tr.doneAt > 6*rtt {
			t.Fatalf("fast=%v: completion at %v, want 3-6 RTT slow-start ramp", fast, tr.doneAt)
		}
	}
}

// TestFastPathFallbackReasonClassification checks the per-reason
// breakdown of the fallback counter: a peer that stops being a directly
// resolvable Endpoint mid-epoch must classify the fallback as
// "topology", switching the engine off mid-epoch as "disabled", a
// segment sent after the connection closed as "teardown", and in every
// case the reason counts must sum to the fallback total.
func TestFastPathFallbackReasonClassification(t *testing.T) {
	base := fastScenario{seed: 7, delay: 10 * time.Millisecond, size: 100 << 10, mss: 1460, iw: 10}

	// Mid-epoch mutation after the Nth fresh data segment, applied on a
	// zero-delay event so both lanes see it at the same stream position.
	midStream := func(apply func(*simnet.Network, *testNet)) func(*testing.T) simnet.FastPathStats {
		return func(t *testing.T) simnet.FastPathStats {
			return base.run(t, true, func(n *simnet.Network, tn *testNet) {
				sent := 0
				inner := tn.server.Tap
				tn.server.Tap = func(ev TapEvent) {
					inner(ev)
					if ev.Dir == DirSend && len(ev.Segment.Data) > 0 && !ev.Segment.Retrans {
						if sent == 20 {
							tn.sim.Schedule(0, func() { apply(n, tn) })
						}
						sent++
					}
				}
			}).stats
		}
	}

	cases := []struct {
		name   string
		reason simnet.FallbackReason
		stats  func(*testing.T) simnet.FastPathStats
	}{
		// The client's stack moves behind a forwarding handler: same
		// deliveries, but no longer an *Endpoint the sender can resolve.
		{"topology", simnet.FallbackTopology, midStream(func(n *simnet.Network, tn *testNet) {
			n.Attach("c", simnet.HandlerFunc(tn.client.Deliver))
		})},
		{"disabled", simnet.FallbackDisabled, midStream(func(n *simnet.Network, _ *testNet) {
			n.SetFastPathEnabled(false)
		})},
		{"teardown", simnet.FallbackTeardown, lateDelayedAckStats},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.stats(t)
			if st.Fallbacks == 0 {
				t.Fatalf("%s mid-epoch recorded no fallbacks: %+v", tc.name, st)
			}
			if st.FallbacksByReason[tc.reason] == 0 {
				t.Fatalf("%s not classified: by-reason %v", tc.name, st.FallbacksByReason)
			}
			var sum uint64
			for _, v := range st.FallbacksByReason {
				sum += v
			}
			if sum != st.Fallbacks {
				t.Fatalf("by-reason sum %d != fallback total %d (%v)",
					sum, st.Fallbacks, st.FallbacksByReason)
			}
		})
	}
}

// lateDelayedAckStats builds the one way a closed connection still
// transmits: the client uploads into a blackout and aborts at the top of
// its RTO ladder while a delayed ACK for a lone server segment is still
// pending; the ACK timer then fires on the closed connection. A first
// run learns the abort instant, the second lands the lone segment half
// a delayed-ACK timeout before it.
func lateDelayedAckStats(t *testing.T) simnet.FastPathStats {
	const delay, ackTimeout = 10 * time.Millisecond, 40 * time.Millisecond
	run := func(loneAt time.Duration) (abortAt time.Duration, st simnet.FastPathStats) {
		tn := newTestNet(t, simnet.PathParams{Delay: delay}, Config{DelayedAck: true, DelayedAckTimeout: ackTimeout})
		var srv *Conn
		if _, err := tn.server.Listen(80, func(c *Conn) { srv = c }); err != nil {
			t.Fatal(err)
		}
		cli := tn.client.Dial("s", 80)
		cli.OnClose = func() { abortAt = tn.sim.Now() }
		tn.sim.Schedule(100*time.Millisecond, func() {
			tn.net.SetPath("c", "s", simnet.PathParams{Delay: delay, LossRate: 1})
			cli.Send(make([]byte, 1000))
		})
		if loneAt > 0 {
			tn.sim.Schedule(loneAt, func() { srv.Send([]byte{1}) })
		}
		tn.sim.Run()
		return abortAt, tn.net.FastPathStats()
	}
	abortAt, _ := run(0)
	_, st := run(abortAt - delay - ackTimeout/2)
	return st
}
