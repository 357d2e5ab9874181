package tcpsim

import (
	"fmt"
	"math/rand"
	"slices"
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

// obsEvent is a TapEvent reduced to comparable fields, with its SACK
// blocks (the payload collapses to its length; the stream-integrity
// tests already cover contents).
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
	sack    [3]SACKBlock
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
func (tr *transcript) tap(host string) func(TapEvent, []byte, []SACKBlock) {
	return func(ev TapEvent, data []byte, sack []SACKBlock) {
		o := obsEvent{
			at:      ev.Time,
			host:    host,
			dir:     ev.Dir,
			remote:  ev.Remote,
			flags:   ev.Segment.Flags,
			seq:     ev.Segment.Seq,
			ack:     ev.Segment.Ack,
			dataLen: int(ev.Segment.Len),
			retrans: ev.Segment.Retrans,
		}
		copy(o.sack[:], sack)
		tr.events = append(tr.events, o)
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
				tn.server.Tap = func(ev TapEvent, data []byte, sack []SACKBlock) {
					inner(ev, data, sack)
					if ev.Dir == DirSend && len(data) > 0 && !ev.Segment.Retrans {
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
// a clean bulk transfer opens one epoch per connection and carries
// every segment on the lane; on a lossy path every segment either
// endpoint sends is either queued on the lane or dropped at send time.
func TestFastPathStatsAccounting(t *testing.T) {
	s := fastScenario{seed: 7, delay: 10 * time.Millisecond, size: 100 << 10, mss: 1460, iw: 10}
	tr := s.run(t, true, nil)
	st := tr.stats
	if st.Epochs != 2 || st.Bytes == 0 || st.LossDrops != 0 {
		t.Fatalf("clean transfer: want two epochs, bytes and no drops, got %+v", st)
	}
	if sent := uint64(tr.sends("c") + tr.sends("s")); st.Segments != sent {
		t.Fatalf("lane segments %d != %d segments sent", st.Segments, sent)
	}

	// Lossy from the start: the whole conversation, recovery included,
	// is lane traffic.
	s2 := s
	s2.lossRate = 0.05
	s2.seed = 8
	tr2 := s2.run(t, true, nil)
	st2 := tr2.stats
	if st2.LossDrops == 0 {
		t.Fatalf("5%% loss: want send-time lane drops, got %+v", st2)
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

// TestFastPathCarriesFormerFallbacks runs the scenarios that used to
// leave the fast lane for the event heap — a peer host behind a
// forwarding handler, behind a dropping one, and a delayed ACK a closed
// connection sends — plus the one switch that still does (the engine
// turned off mid-stream). Each must reproduce the engine-off run's
// transcript; in the first three, every segment sent must have ridden
// the lane (queued or dropped there at send time).
func TestFastPathCarriesFormerFallbacks(t *testing.T) {
	base := fastScenario{seed: 7, delay: 10 * time.Millisecond, size: 100 << 10, mss: 1460, iw: 10}

	// midStream applies a mutation after the server's 20th fresh data
	// segment, on a zero-delay event so both runs see it at the same
	// stream position.
	midStream := func(apply func(*simnet.Network, *testNet)) func(*simnet.Network, *testNet) {
		return func(n *simnet.Network, tn *testNet) {
			sent := 0
			inner := tn.server.Tap
			tn.server.Tap = func(ev TapEvent, data []byte, sack []SACKBlock) {
				inner(ev, data, sack)
				if ev.Dir == DirSend && len(data) > 0 && !ev.Segment.Retrans {
					if sent == 20 {
						tn.sim.Schedule(0, func() { apply(n, tn) })
					}
					sent++
				}
			}
		}
	}
	scenario := func(mutate func(*simnet.Network, *testNet)) func(*testing.T, bool) *transcript {
		return func(t *testing.T, fast bool) *transcript { return base.run(t, fast, mutate) }
	}

	for _, tc := range []struct {
		name   string
		run    func(t *testing.T, fast bool) *transcript
		onLane bool // every segment rides the lane
	}{
		// The client's stack moves behind a forwarding handler: same
		// deliveries, through the host table instead of straight to
		// the connection.
		{"forwarder", scenario(midStream(func(n *simnet.Network, tn *testNet) {
			n.Attach("c", simnet.HandlerFunc(tn.client.Deliver))
		})), true},
		{"dropper", scenario(func(n *simnet.Network, tn *testNet) {
			n.Attach("c", &dropper{h: tn.client, drops: map[int]bool{3: true, 30: true, 31: true}})
		}), true},
		{"late-delayed-ack", lateDelayedAck, true},
		{"switched-off", scenario(midStream(func(n *simnet.Network, _ *testNet) {
			n.SetFastPathEnabled(false)
		})), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fastTr, slowTr := tc.run(t, true), tc.run(t, false)
			if d := fastTr.diff(slowTr); d != "" {
				t.Fatalf("diverged from the engine-off run: %s", d)
			}
			st := fastTr.stats
			sent := uint64(fastTr.sends("c") + fastTr.sends("s"))
			if onLane := st.Segments+st.LossDrops == sent; onLane != tc.onLane {
				t.Fatalf("lane segments %d + lane drops %d vs %d segments sent: all on the lane = %v, want %v",
					st.Segments, st.LossDrops, sent, onLane, tc.onLane)
			}
			if st.Segments == 0 || slowTr.stats != (simnet.FastPathStats{}) {
				t.Fatalf("engine on carried %+v, engine off %+v", st, slowTr.stats)
			}
		})
	}
}

// lateDelayedAck builds the one way a closed connection still
// transmits: the client uploads into a blackout and aborts at the top of
// its RTO ladder while a delayed ACK for a lone server segment is still
// pending; the ACK timer then fires on the closed connection. A first
// run learns the abort instant, the second lands the lone segment half
// a delayed-ACK timeout before it.
func lateDelayedAck(t *testing.T, fast bool) *transcript {
	const delay, ackTimeout = 10 * time.Millisecond, 40 * time.Millisecond
	run := func(loneAt time.Duration) (abortAt time.Duration, tr *transcript) {
		tn := newTestNet(t, simnet.PathParams{Delay: delay}, Config{DelayedAck: true, DelayedAckTimeout: ackTimeout})
		tn.net.SetFastPathEnabled(fast)
		tr = &transcript{}
		tn.client.Tap = tr.tap("c")
		tn.server.Tap = tr.tap("s")
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
		tr.finalAt = tn.sim.Now()
		tr.clientM, tr.serverM = cli.Metrics(), srv.Metrics()
		tr.stats = tn.net.FastPathStats()
		return abortAt, tr
	}
	abortAt, _ := run(0)
	_, tr := run(abortAt - delay - ackTimeout/2)
	if !slices.ContainsFunc(tr.events, func(ev obsEvent) bool {
		return ev.host == "c" && ev.dir == DirSend && ev.at > abortAt
	}) {
		t.Fatalf("the client sent nothing after it closed at %v", abortAt)
	}
	return tr
}

// demuxChurn is a transfer whose receiver's demux table keeps changing:
// the server pushes one 100 KB flight (IW 100) through a 10 Mbit/s
// bottleneck, and meanwhile the client opens and closes short
// connections to a second host, each close bumping the client's
// demuxGen. The server transmits nothing new once its flight is out, so
// every flight segment delivered after the first close finds its ring's
// resolution stale and takes the full demux. fallbacks counts those
// deliveries on the fast run.
func demuxChurn(t *testing.T, fast bool, fallbacks *int) *transcript {
	s := fastScenario{seed: 5, delay: 10 * time.Millisecond, bandwidth: 10e6, size: 100 << 10, mss: 1460, iw: 100}
	return s.run(t, fast, func(n *simnet.Network, tn *testNet) {
		other := NewEndpoint(n, "s2", Config{})
		n.SetLink("c", "s2", simnet.PathParams{Delay: time.Millisecond})
		if _, err := other.Listen(81, func(c *Conn) {
			c.Send(make([]byte, 500))
			c.Close()
		}); err != nil {
			t.Fatal(err)
		}
		for i := range 12 {
			tn.sim.Schedule(time.Duration(25+8*i)*time.Millisecond, func() {
				c := tn.client.Dial("s2", 81)
				c.OnClose = c.Close
			})
		}
		inner := tn.client.Tap
		tn.client.Tap = func(ev TapEvent, data []byte, sack []SACKBlock) {
			inner(ev, data, sack)
			if srv := tn.server.conns[connKey{"c", 40000, 80}]; fast && ev.Dir == DirRecv && ev.Segment.SrcPort == 80 &&
				srv != nil && srv.ring != nil && srv.ring.dstGen != tn.client.demuxGen {
				*fallbacks++
			}
		}
	})
}

// TestFastPathDemuxChurnNeverBoxes: a lane delivery whose receiving
// endpoint's demux table changed since the sender resolved it goes
// through that endpoint's full demux — transcript-identical to the
// engine-off run — without boxing the segment into a simnet.Packet. The
// allocation pin (exact at the seed, 10 % of headroom) is smaller than
// the number of such deliveries, so one allocation each would trip it.
func TestFastPathDemuxChurnNeverBoxes(t *testing.T) {
	fallbacks := 0
	fastTr := demuxChurn(t, true, &fallbacks)
	if d := fastTr.diff(demuxChurn(t, false, new(int))); d != "" {
		t.Fatalf("diverged from the engine-off run: %s", d)
	}
	if fastTr.gotLen != 100<<10 {
		t.Fatalf("delivered %d of %d bytes", fastTr.gotLen, 100<<10)
	}
	const measured = 253 // allocations per run at seed 5
	allocs := testing.AllocsPerRun(3, func() { demuxChurn(t, true, new(int)) })
	if limit := measured * 1.1; allocs > limit || fallbacks <= int(limit-measured)+1 {
		t.Errorf("%.0f allocations per run (pinned %d), %d deliveries through the full demux: want allocations ≤ %.0f and more full-demux deliveries than the headroom",
			allocs, measured, fallbacks, limit)
	}
}
