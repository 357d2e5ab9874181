package tcpsim

import (
	"bytes"
	"flag"
	"fmt"
	"testing"
	"time"

	"fesplit/internal/simnet"
)

// Exhaustive small-scope loss schedules: every drop mask over the first
// k packets in each direction, for every transfer shape below, judged
// by absolute end states rather than by agreement with a second copy of
// the transport.

var dropK = flag.Int("dropk", 4, "drop schedules: packets per direction whose fate is enumerated (make lossy-check runs 6)")

// noRST pins, per k, the masks in which one end spends its retry budget
// and aborts while its peer sits ESTABLISHED with nothing outstanding and
// no timer. A real stack would answer the peer's next segment with a RST;
// this one sends none, so nothing ever tells the peer (ROADMAP item 20).
var noRST = map[int]int{4: 0, 6: 320}

const schedMSS = 1000

// schedConfig is one transfer shape: the server sends segs full
// segments, then closer closes: "server" after its data (the client
// answers the FIN), "client" once it holds every byte (the server
// answers), "both" at once (the client as it connects).
type schedConfig struct {
	segs   int
	closer string
	sack   bool
	iw     int
}

// schedRun is what one mask's run left behind.
type schedRun struct {
	cli, srv *Conn
	got      int
	corrupt  bool
	doneAt   time.Duration // the instant the client held every byte
	pending  int
}

// run plays the transfer with the packets arriving at the server dropped
// per c2s and those arriving at the client per s2c.
func (sc schedConfig) run(payload []byte, c2s, s2c uint64) *schedRun {
	sim := simnet.New(1)
	n := simnet.NewNetwork(sim)
	n.SetLink("c", "s", simnet.PathParams{Delay: 10 * time.Millisecond})
	cfg := Config{MSS: schedMSS, InitialCwnd: sc.iw, SACK: sc.sack}
	client, server := NewEndpoint(n, "c", cfg), NewEndpoint(n, "s", cfg)
	n.Attach("c", &dropper{h: client, mask: s2c})
	n.Attach("s", &dropper{h: server, mask: c2s})
	r := &schedRun{}
	if _, err := server.Listen(80, func(c *Conn) {
		c.Send(payload)
		if c.OnClose = c.Close; sc.closer != "client" {
			c.Close()
		}
	}); err != nil {
		panic(err)
	}
	r.cli = client.Dial("s", 80)
	// The server's connection exists from the SYN's arrival on, and may
	// abort before it is ever accepted.
	server.Tap = func(ev TapEvent, _ []byte, _ []SACKBlock) {
		if r.srv == nil && ev.Dir == DirSend {
			r.srv = server.conns[connKey{"c", r.cli.localPort, 80}]
		}
	}
	r.cli.OnData = func(b []byte) {
		r.corrupt = r.corrupt || !bytes.Equal(b, payload[r.got:r.got+len(b)])
		if r.got += len(b); r.got == len(payload) {
			r.doneAt = sim.Now()
			if sc.closer == "client" {
				r.cli.Close()
			}
		}
	}
	r.cli.OnClose = r.cli.Close
	if sc.closer == "both" {
		r.cli.OnConnect = r.cli.Close
	}
	sim.Run()
	r.pending = sim.Pending()
	return r
}

// silentPeer reports the no-RST end state: one end aborted, the other
// ESTABLISHED with nothing outstanding and no timer armed.
func (r *schedRun) silentPeer() bool {
	for _, p := range [][2]*Conn{{r.cli, r.srv}, {r.srv, r.cli}} {
		if gone, peer := p[0], p[1]; gone.backoffs > maxBackoffs && peer.st == stateEstablished &&
			peer.sndUna == peer.sndNxt && !peer.timerArmed {
			return r.pending == 0 && !r.corrupt
		}
	}
	return false
}

// fault returns the first absolute property the run breaks, or "".
func (r *schedRun) fault(size int, cleanDone time.Duration) string {
	for _, c := range []*Conn{r.cli, r.srv} {
		if c.st != stateClosed {
			return fmt.Sprintf("not both CLOSED: state %d, sndUna %d, sndNxt %d, finSent %v, finAcked %v",
				c.st, c.sndUna, c.sndNxt, c.finSent, c.finAcked)
		}
		if !(c.sndUna <= c.sndNxt && c.sndNxt <= c.maxSent) {
			return fmt.Sprintf("sndUna %d, sndNxt %d, maxSent %d out of order", c.sndUna, c.sndNxt, c.maxSent)
		}
	}
	switch {
	case r.corrupt || r.got != size:
		return fmt.Sprintf("delivered %d of %d bytes (out of order: %v)", r.got, size, r.corrupt)
	case r.pending != 0:
		return fmt.Sprintf("%d events still pending", r.pending)
	case r.doneAt < cleanDone:
		return fmt.Sprintf("completed at %v, before the drop-free run's %v", r.doneAt, cleanDone)
	}
	return ""
}

// TestDropSchedules runs every drop mask over the first -dropk packets
// in each direction (4 by default; make lossy-check runs 6) for 48
// transfer shapes: 1, 3, 10 and 40 segments; closed by the server, the
// client or both; SACK on and off; IW 3 and 10. Every run must end with
// both connections CLOSED, every byte delivered in order, no pending
// event, sndUna ≤ sndNxt ≤ maxSent on both ends, and completion no
// earlier than the drop-free run's — or in the pinned no-RST state. A
// failing mask is shrunk to a minimal one and printed.
func TestDropSchedules(t *testing.T) {
	k := *dropK
	var silent [48]int
	for i := range silent {
		sc := schedConfig{[]int{1, 3, 10, 40}[i/12], []string{"server", "client", "both"}[i/4%3], i/2%2 == 1, []int{3, 10}[i%2]}
		t.Run(fmt.Sprintf("segs=%d/close=%s/sack=%v/iw=%d", sc.segs, sc.closer, sc.sack, sc.iw), func(t *testing.T) {
			t.Parallel()
			silent[i] = sc.sweep(t, k)
		})
	}
	t.Cleanup(func() {
		total := 0
		for _, n := range silent {
			total += n
		}
		if want, ok := noRST[k]; ok && total != want {
			t.Errorf("k=%d: %d masks end in the no-RST state, pinned %d", k, total, want)
		}
		t.Logf("k=%d: %d runs, %d in the no-RST state", k, 48<<(2*k), total)
	})
}

// sweep runs every mask pair of one shape, reports how many fail with a
// minimal failing schedule, and returns the no-RST count.
func (sc schedConfig) sweep(t *testing.T, k int) (silent int) {
	payload := make([]byte, sc.segs*schedMSS)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	cleanDone := sc.run(payload, 0, 0).doneAt
	fault := func(m uint64) string {
		r := sc.run(payload, m&(1<<k-1), m>>k)
		if r.srv == nil {
			return "the server never opened a connection"
		}
		if r.silentPeer() {
			return "no-RST"
		}
		return r.fault(len(payload), cleanDone)
	}
	failed, first := 0, uint64(0)
	for m := uint64(0); m < 1<<(2*k); m++ {
		switch fault(m) {
		case "":
		case "no-RST":
			silent++
		default:
			if failed++; failed == 1 {
				first = m
			}
		}
	}
	if failed > 0 {
		// Shrink: clear set bits while the schedule keeps failing.
		for shrunk := true; shrunk; {
			shrunk = false
			for b := uint64(1); b < 1<<(2*k); b <<= 1 {
				if first&b == 0 {
					continue
				}
				if f := fault(first &^ b); f != "" && f != "no-RST" {
					first, shrunk = first&^b, true
				}
			}
		}
		t.Errorf("%d of %d masks fail; minimal: drop c→s arrivals %0*b, s→c arrivals %0*b (bit i = arrival i+1): %s",
			failed, 1<<(2*k), k, first&(1<<k-1), k, first>>k, fault(first))
	}
	return silent
}

// TestFINAckedAfterRewind replays the FIN leak: an RTO rewind cleared
// finSent after the FIN had left, and the ACK that covered it moved
// sndUna past finSeq without marking the FIN acked, so the server sat
// ESTABLISHED forever. Both ends must close.
func TestFINAckedAfterRewind(t *testing.T) {
	for _, size := range []int{80000, 200000} {
		tn := newTestNet(t, simnet.PathParams{Delay: 8 * time.Millisecond, LossRate: 0.08}, Config{SACK: true})
		if _, err := tn.server.Listen(80, func(c *Conn) {
			c.Send(make([]byte, size))
			c.Close()
		}); err != nil {
			t.Fatal(err)
		}
		c := tn.client.Dial("s", 80)
		c.OnClose = c.Close
		tn.sim.Run()
		if tn.client.OpenConns() != 0 || tn.server.OpenConns() != 0 {
			t.Errorf("%d bytes: open connections client %d, server %d", size, tn.client.OpenConns(), tn.server.OpenConns())
		}
	}
}
