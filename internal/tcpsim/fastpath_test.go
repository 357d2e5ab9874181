package tcpsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fesplit/internal/obs"
	"fesplit/internal/simnet"
)

// The lane is TCP's only path. Besides the drop schedules
// (schedule_test.go), its reference is the packet path it replaced: for
// every scenario the lane-vs-packet differentials ran, the transcript
// both paths produced — every tap event at the same sim-time with the
// same segment, the same connection metrics, the same final clock — is
// frozen as a sha256 digest in testdata/transcripts.sha256, and the
// lane must reproduce it.

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
	// stats is the lane's traffic totals, not part of diff or the
	// digest: the tests use it to prove a scenario exercised the lane.
	stats laneStats
	// net and drops count the segments the paths' loss processes drop.
	net   simnet.Metrics
	drops obs.Counter
}

// laneStats is what a simulator's lane carried, and the segments its
// paths' loss processes dropped at send time.
type laneStats struct {
	simnet.LaneCounts
	LossDrops uint64
}

// countDrops has sim count into tr the segments its paths' loss
// processes drop; call it before the first send.
func (tr *transcript) countDrops(sim *simnet.Sim) {
	tr.net.PacketsDropped = &tr.drops
	sim.SetMetrics(&tr.net)
}

// statsOf reads sim's lane totals and tr's drop count.
func (tr *transcript) statsOf(sim *simnet.Sim) laneStats {
	return laneStats{laneFor(sim).carried, uint64(tr.drops.Value())}
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

// diff names the first difference between two transcripts, or "".
func (tr *transcript) diff(other *transcript) string {
	a := fmt.Sprint(tr.finalAt, tr.doneAt, tr.gotLen, tr.clientM, tr.serverM, len(tr.events))
	if b := fmt.Sprint(other.finalAt, other.doneAt, other.gotLen, other.clientM, other.serverM, len(other.events)); a != b {
		return fmt.Sprintf("final time, completion, bytes, client and server metrics, tap events: %s vs %s", a, b)
	}
	for i := range tr.events {
		if tr.events[i] != other.events[i] {
			return fmt.Sprintf("tap event %d: %+v vs %+v", i, tr.events[i], other.events[i])
		}
	}
	return ""
}

// digest is a sha256 of everything diff compares.
func (tr *transcript) digest() string {
	h := sha256.New()
	fmt.Fprint(h, tr.events, tr.finalAt, tr.doneAt, tr.gotLen, tr.clientM, tr.serverM)
	return hex.EncodeToString(h.Sum(nil))
}

// frozen maps a scenario name to its transcript digest, as the
// packet-path reference wrote it (testdata/transcripts.sha256).
var frozen = sync.OnceValue(func() map[string]string {
	b, _ := os.ReadFile("testdata/transcripts.sha256")
	m := map[string]string{}
	for _, line := range strings.Split(string(b), "\n") {
		if sum, name, ok := strings.Cut(line, "  "); ok {
			m[name] = sum
		}
	}
	return m
})

// checkFrozen fails t unless tr reproduces the frozen digest of name.
func checkFrozen(t *testing.T, name string, tr *transcript) {
	t.Helper()
	if got, want := tr.digest(), frozen()[name]; got != want {
		t.Fatalf("%s: transcript digest %s, frozen %q", name, got, want)
	}
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
func (s fastScenario) run(t *testing.T, mutate func(*simnet.Network, *testNet)) *transcript {
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
	cfg := Config{MSS: s.mss, InitialCwnd: s.iw, DelayedAck: s.delayedAck, SACK: s.sack}
	tn := &testNet{
		sim:    sim,
		net:    n,
		client: NewEndpoint(n, "c", cfg),
		server: NewEndpoint(n, "s", cfg),
	}
	tr := &transcript{}
	tr.countDrops(sim)
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
	tr.stats = tr.statsOf(sim)
	return tr
}

// TestFastPathDifferentialEquivalence is the lane's main gate: many
// randomized scenarios across the (RTT, jitter, loss, bandwidth, size,
// cwnd, MSS, SACK, delayed-ACK, direction) space must each reproduce
// the transcript the packet path produced.
func TestFastPathDifferentialEquivalence(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 12
	}
	r := rand.New(rand.NewSource(4242))
	for i := 0; i < iters; i++ {
		s := randScenario(r)
		tr := s.run(t, nil)
		if tr.gotLen != s.size {
			t.Fatalf("iter %d scenario %+v incomplete: %d/%d bytes", i, s, tr.gotLen, s.size)
		}
		checkFrozen(t, fmt.Sprintf("random/%02d", i), tr)
	}
	// The seed corpus of the former lossy fuzz target, mapped as it
	// mapped its inputs (0.005000000000000001 is float64(50)/1000*0.1).
	for i, s := range []fastScenario{
		{seed: 1, delay: 11 * time.Millisecond, lossRate: 0.002, size: 65537},
		{seed: 7, delay: 31 * time.Millisecond, lossRate: 0.005000000000000001, size: 122881, sack: true},
		{seed: 42, delay: 6 * time.Millisecond, size: 204801, sack: true, useGilbert: true,
			gilbert: simnet.GilbertParams{PGoodToBad: 0.05, PBadToGood: 0.25, LossGood: 0.001, LossBad: 0.6}},
		{seed: 9, delay: 2 * time.Millisecond, size: 2},
	} {
		s.mss, s.iw = 1460, 10
		checkFrozen(t, fmt.Sprintf("loss-epoch-seed/%d", i), s.run(t, nil))
	}
}

// TestFastPathFallbackBoundary injects a total-loss window starting at
// the epoch's first, middle, and last data segment. The topology flip
// revokes the sender's path handle mid-epoch at each boundary; timings
// must still match the packet path's exactly, including the
// retransmission schedule through the loss window.
func TestFastPathFallbackBoundary(t *testing.T) {
	const totalSegs = 70 // ~100KB at MSS 1460
	s := fastScenario{seed: 99, delay: 15 * time.Millisecond, size: totalSegs * 1460, mss: 1460, iw: 10}
	for i, name := range []string{"first", "middle", "last"} {
		t.Run(name, func(t *testing.T) {
			boundary := []int{0, totalSegs / 2, totalSegs - 1}[i]
			tr := s.run(t, func(n *simnet.Network, tn *testNet) {
				sent := 0
				inner := tn.server.Tap
				tn.server.Tap = func(ev TapEvent, data []byte, sack []SACKBlock) {
					inner(ev, data, sack)
					if ev.Dir == DirSend && len(data) > 0 && !ev.Segment.Retrans {
						if sent == boundary {
							// Defer to after the current dispatch, so the
							// flip lands at the reference's stream position
							// (mid-send mutation would race the
							// already-resolved handle).
							tn.sim.Schedule(0, func() {
								n.SetPath("s", "c", simnet.PathParams{Delay: s.delay, LossRate: 1})
								tn.sim.Schedule(120*time.Millisecond, func() {
									n.SetPath("s", "c", simnet.PathParams{Delay: s.delay})
								})
							})
						}
						sent++
					}
				}
			})
			if tr.gotLen != s.size {
				t.Fatalf("incomplete: %d/%d", tr.gotLen, s.size)
			}
			if tr.clientM.Retransmits == 0 && tr.serverM.Retransmits == 0 {
				t.Fatal("loss window produced no retransmissions; injection missed")
			}
			checkFrozen(t, "boundary/"+name, tr)
		})
	}
}

// TestFastPathStatsAccounting checks the counters count what they say:
// a clean bulk transfer opens one epoch per connection and carries
// every segment on the lane; on a lossy path every segment either
// endpoint sends is either queued on the lane or dropped at send time.
func TestFastPathStatsAccounting(t *testing.T) {
	s := fastScenario{seed: 7, delay: 10 * time.Millisecond, size: 100 << 10, mss: 1460, iw: 10}
	tr := s.run(t, nil)
	st := tr.stats
	if st.Epochs != 2 || st.Bytes == 0 || st.LossDrops != 0 {
		t.Fatalf("clean transfer: want two epochs, bytes and no drops, got %+v", st)
	}
	if sent := uint64(tr.sends("c") + tr.sends("s")); st.Segments != sent {
		t.Fatalf("lane segments %d != %d segments sent", st.Segments, sent)
	}

	// Lossy from the start: the whole conversation, recovery included,
	// is lane traffic.
	s.lossRate, s.seed = 0.05, 8
	tr = s.run(t, nil)
	if st = tr.stats; st.LossDrops == 0 {
		t.Fatalf("5%% loss: want send-time lane drops, got %+v", st)
	}
	if sent := uint64(tr.sends("c") + tr.sends("s")); st.Segments+st.LossDrops != sent {
		t.Fatalf("lane segments %d + lane drops %d != %d segments sent", st.Segments, st.LossDrops, sent)
	}
}

// TestFastPathSlowStartTimingPreserved pins a known-good absolute
// timing (from the pre-fast-path engine): a 21KB slow-start ramp
// completes between 3 and 6 RTT.
func TestFastPathSlowStartTimingPreserved(t *testing.T) {
	s := fastScenario{seed: 1, delay: 25 * time.Millisecond, size: 21000, mss: 1000, iw: 3}
	tr := s.run(t, nil)
	if rtt := 50 * time.Millisecond; tr.doneAt < 3*rtt || tr.doneAt > 6*rtt {
		t.Fatalf("completion at %v, want 3-6 RTT slow-start ramp", tr.doneAt)
	}
}

// TestFastPathCarriesFormerFallbacks runs the scenarios that used to
// leave the fast lane for the event heap — a peer host behind a
// forwarding handler, behind a dropping one, and a delayed ACK a closed
// connection sends. Each must reproduce the packet path's transcript,
// and every segment sent must have ridden the lane (queued or dropped
// there at send time).
func TestFastPathCarriesFormerFallbacks(t *testing.T) {
	base := fastScenario{seed: 7, delay: 10 * time.Millisecond, size: 100 << 10, mss: 1460, iw: 10}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) *transcript
	}{
		// After the server's 20th fresh data segment (on a zero-delay
		// event, where the reference applied it), the client's stack
		// moves behind a forwarding handler: same deliveries, through
		// the host table instead of straight to the connection.
		{"forwarder", func(t *testing.T) *transcript {
			return base.run(t, func(n *simnet.Network, tn *testNet) {
				sent := 0
				inner := tn.server.Tap
				tn.server.Tap = func(ev TapEvent, data []byte, sack []SACKBlock) {
					inner(ev, data, sack)
					if ev.Dir == DirSend && len(data) > 0 && !ev.Segment.Retrans {
						if sent == 20 {
							tn.sim.Schedule(0, func() { n.Attach("c", simnet.HandlerFunc(tn.client.Deliver)) })
						}
						sent++
					}
				}
			})
		}},
		{"dropper", func(t *testing.T) *transcript {
			return base.run(t, func(n *simnet.Network, tn *testNet) {
				n.Attach("c", &dropper{h: tn.client, drops: map[int]bool{3: true, 30: true, 31: true}})
			})
		}},
		{"late-delayed-ack", lateDelayedAck},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.run(t)
			checkFrozen(t, "former-fallback/"+tc.name, tr)
			if st, sent := tr.stats, uint64(tr.sends("c")+tr.sends("s")); st.Segments == 0 || st.Segments+st.LossDrops != sent {
				t.Fatalf("lane segments %d + lane drops %d, %d segments sent: want all on the lane", st.Segments, st.LossDrops, sent)
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
func lateDelayedAck(t *testing.T) *transcript {
	const delay, ackTimeout = 10 * time.Millisecond, delayedAckTimeout
	run := func(loneAt time.Duration) (abortAt time.Duration, tr *transcript) {
		tn := newTestNet(t, simnet.PathParams{Delay: delay}, Config{DelayedAck: true})
		tr = &transcript{}
		tr.countDrops(tn.sim)
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
		tr.stats = tr.statsOf(tn.sim)
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
// deliveries.
func demuxChurn(t *testing.T, fallbacks *int) *transcript {
	s := fastScenario{seed: 5, delay: 10 * time.Millisecond, bandwidth: 10e6, size: 100 << 10, mss: 1460, iw: 100}
	return s.run(t, func(n *simnet.Network, tn *testNet) {
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
			if srv := tn.server.conns[connKey{"c", 40000, 80}]; ev.Dir == DirRecv && ev.Segment.SrcPort == 80 &&
				srv != nil && srv.ring != nil && srv.ring.dstGen != tn.client.demuxGen {
				*fallbacks++
			}
		}
	})
}

// TestFastPathDemuxChurnNeverBoxes: a lane delivery whose receiving
// endpoint's demux table changed since the sender resolved it goes
// through that endpoint's full demux — reproducing the packet path's
// transcript — without boxing the segment into a simnet.Packet. The
// allocation pin (exact at the seed, 10 % of headroom) is smaller than
// the number of such deliveries, so one allocation each would trip it.
func TestFastPathDemuxChurnNeverBoxes(t *testing.T) {
	fallbacks := 0
	tr := demuxChurn(t, &fallbacks)
	if tr.gotLen != 100<<10 {
		t.Fatalf("delivered %d of %d bytes", tr.gotLen, 100<<10)
	}
	checkFrozen(t, "demux-churn", tr)
	const measured = 253 // allocations per run at seed 5
	allocs := testing.AllocsPerRun(3, func() { demuxChurn(t, new(int)) })
	if limit := measured * 1.1; allocs > limit || fallbacks <= int(limit-measured)+1 {
		t.Errorf("%.0f allocations per run (pinned %d), %d deliveries through the full demux: want allocations ≤ %.0f and more full-demux deliveries than the headroom",
			allocs, measured, fallbacks, limit)
	}
}

// TestLossEpochBlackout: the server→client direction drops everything
// from the first SYN|ACK on. Both ends climb their RTO ladders and
// abort at the packet path's instants, every server segment resolved
// as a send-time lane drop.
func TestLossEpochBlackout(t *testing.T) {
	s := fastScenario{seed: 9, delay: 10 * time.Millisecond, size: 100 << 10, mss: 1460, iw: 10}
	tr := s.run(t, func(n *simnet.Network, _ *testNet) {
		n.SetPath("s", "c", simnet.PathParams{Delay: s.delay, LossRate: 1})
	})
	checkFrozen(t, "blackout", tr)
	// The server's connection never establishes, so the accept callback
	// (and serverM) never sees it; its ladder shows as SYN|ACK resends.
	if tr.clientM.Timeouts != maxBackoffs || tr.sends("s") <= maxBackoffs || tr.gotLen != 0 {
		t.Fatalf("want both ends to climb %d RTOs with nothing delivered, got client %+v, %d server sends, %d bytes",
			maxBackoffs, tr.clientM, tr.sends("s"), tr.gotLen)
	}
	if st := tr.stats; st.LossDrops != uint64(tr.sends("s")) || st.Segments != uint64(tr.sends("c")) {
		t.Fatalf("want every server send a lane drop (%d), every client send a lane segment (%d); got %+v",
			tr.sends("s"), tr.sends("c"), st)
	}
}
