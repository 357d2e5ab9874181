package simnet

import (
	"testing"
	"time"

	"fesplit/internal/obs"
)

func newPair(t *testing.T, p PathParams) (*Sim, *Network, *recorder, *recorder) {
	t.Helper()
	s := New(42)
	n := NewNetwork(s)
	a, b := &recorder{}, &recorder{}
	n.Attach("a", a)
	n.Attach("b", b)
	n.SetLink("a", "b", p)
	return s, n, a, b
}

// wireMetrics gives s a fresh metrics bundle: the net_packets_* and
// net_bytes_sent_total counters are the network's only traffic totals.
func wireMetrics(s *Sim) *Metrics {
	m := NewMetrics(obs.NewRegistry())
	s.SetMetrics(m)
	return m
}

type recorder struct {
	pkts  []Packet
	times []Time
	sim   *Sim
}

func (r *recorder) Deliver(p Packet) {
	r.pkts = append(r.pkts, p)
	if r.sim != nil {
		r.times = append(r.times, r.sim.Now())
	}
}

func TestDeliveryDelay(t *testing.T) {
	s, n, _, b := newPair(t, PathParams{Delay: 25 * time.Millisecond})
	b.sim = s
	n.Send(Packet{From: "a", To: "b", Size: 100})
	s.Run()
	if len(b.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(b.pkts))
	}
	if b.times[0] != 25*time.Millisecond {
		t.Fatalf("arrival = %v, want 25ms", b.times[0])
	}
}

func TestRTTHelper(t *testing.T) {
	s := New(1)
	n := NewNetwork(s)
	n.SetPath("a", "b", PathParams{Delay: 10 * time.Millisecond})
	n.SetPath("b", "a", PathParams{Delay: 15 * time.Millisecond})
	if got := n.RTT("a", "b"); got != 25*time.Millisecond {
		t.Fatalf("RTT = %v", got)
	}
}

func TestUnknownHostDropped(t *testing.T) {
	s := New(1)
	n := NewNetwork(s)
	n.Send(Packet{From: "x", To: "ghost", Size: 10})
	s.Run() // must not panic
}

func TestFIFOWithJitter(t *testing.T) {
	s, n, _, b := newPair(t, PathParams{Delay: 10 * time.Millisecond, Jitter: 8 * time.Millisecond})
	b.sim = s
	for i := 0; i < 200; i++ {
		i := i
		s.Schedule(time.Duration(i)*100*time.Microsecond, func() {
			n.Send(Packet{From: "a", To: "b", Size: 100, Payload: i})
		})
	}
	s.Run()
	if len(b.pkts) != 200 {
		t.Fatalf("delivered %d", len(b.pkts))
	}
	for i, p := range b.pkts {
		if p.Payload.(int) != i {
			t.Fatalf("reordered at %d: got %v", i, p.Payload)
		}
	}
	for i := 1; i < len(b.times); i++ {
		if b.times[i] < b.times[i-1] {
			t.Fatalf("arrival times decreased at %d", i)
		}
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1000 bytes/sec, two 500-byte packets sent together: the second
	// waits for the first to serialize. Arrivals at 0.5s+delay and
	// 1.0s+delay.
	s, n, _, b := newPair(t, PathParams{Delay: 10 * time.Millisecond, Bandwidth: 1000})
	b.sim = s
	n.Send(Packet{From: "a", To: "b", Size: 500})
	n.Send(Packet{From: "a", To: "b", Size: 500})
	s.Run()
	if len(b.times) != 2 {
		t.Fatalf("delivered %d", len(b.times))
	}
	want0 := 500*time.Millisecond + 10*time.Millisecond
	want1 := 1000*time.Millisecond + 10*time.Millisecond
	if b.times[0] != want0 || b.times[1] != want1 {
		t.Fatalf("arrivals = %v, want [%v %v]", b.times, want0, want1)
	}
}

func TestUnlimitedBandwidthNoSerialization(t *testing.T) {
	s, n, _, b := newPair(t, PathParams{Delay: 5 * time.Millisecond})
	b.sim = s
	n.Send(Packet{From: "a", To: "b", Size: 1 << 20})
	s.Run()
	if b.times[0] != 5*time.Millisecond {
		t.Fatalf("arrival = %v", b.times[0])
	}
}

func TestLossRate(t *testing.T) {
	s, n, _, b := newPair(t, PathParams{Delay: time.Millisecond, LossRate: 0.3})
	m := wireMetrics(s)
	const total = 10000
	for i := 0; i < total; i++ {
		n.Send(Packet{From: "a", To: "b", Size: 10})
	}
	s.Run()
	got := float64(len(b.pkts)) / total
	if got < 0.66 || got > 0.74 {
		t.Fatalf("delivery rate = %v, want ~0.7", got)
	}
	if sent := m.PacketsSent.Value(); sent != total {
		t.Fatalf("sent = %g", sent)
	}
	if dropped := m.PacketsDropped.Value(); dropped != float64(total-len(b.pkts)) {
		t.Fatalf("dropped = %g, delivered = %d", dropped, len(b.pkts))
	}
}

func TestLossZeroNeverDrops(t *testing.T) {
	s, n, _, b := newPair(t, PathParams{Delay: time.Millisecond})
	for i := 0; i < 1000; i++ {
		n.Send(Packet{From: "a", To: "b", Size: 10})
	}
	s.Run()
	if len(b.pkts) != 1000 {
		t.Fatalf("delivered %d/1000 with zero loss", len(b.pkts))
	}
}

// TestDefaultPath: a pair with no SetPath gets a zero PathParams — no
// delay, unlimited bandwidth, no loss.
func TestDefaultPath(t *testing.T) {
	s := New(1)
	n := NewNetwork(s)
	r := &recorder{sim: s}
	n.Attach("z", r)
	s.Schedule(3*time.Millisecond, func() { n.Send(Packet{From: "y", To: "z", Size: 1 << 20}) })
	s.Run()
	if len(r.times) != 1 || r.times[0] != 3*time.Millisecond {
		t.Fatalf("unconfigured pair delayed delivery: %v", r.times)
	}
	if got := n.Path("p", "q"); got != (PathParams{}) {
		t.Fatalf("Path of an unconfigured pair = %+v", got)
	}
}

// TestPathResolver: a server's resolver answers for both directions of
// its unconfigured pairs, an explicit SetPath wins, and a resolved path
// is stored on its first packet.
func TestPathResolver(t *testing.T) {
	s := New(1)
	n := NewNetwork(s)
	r := &recorder{sim: s}
	n.Attach("srv", r)
	delay := map[HostID]time.Duration{"c1": 5 * time.Millisecond, "c2": 7 * time.Millisecond}
	n.SetPathResolver("srv", func(peer HostID) (PathParams, bool) {
		d, ok := delay[peer]
		return PathParams{Delay: d}, ok
	})
	n.SetPath("c2", "srv", PathParams{Delay: time.Millisecond})
	if got := n.RTT("c1", "srv"); got != 10*time.Millisecond {
		t.Fatalf("resolved RTT = %v, want 10ms", got)
	}
	if got := n.RTT("c2", "srv"); got != 8*time.Millisecond {
		t.Fatalf("RTT with one explicit direction = %v, want 8ms", got)
	}
	if got := n.Path("c3", "srv"); got != (PathParams{}) {
		t.Fatalf("path of a peer the resolver refuses = %+v", got)
	}
	s.Schedule(0, func() { n.Send(Packet{From: "c1", To: "srv"}) })
	s.Run()
	delay["c1"] = time.Second
	if len(r.times) != 1 || r.times[0] != 5*time.Millisecond || n.Path("c1", "srv").Delay != 5*time.Millisecond {
		t.Fatalf("first packet arrived at %v; stored path %+v", r.times, n.Path("c1", "srv"))
	}
}

func TestStatsBytes(t *testing.T) {
	s, n, _, b := newPair(t, PathParams{Delay: time.Millisecond})
	m := wireMetrics(s)
	n.Send(Packet{From: "a", To: "b", Size: 100})
	n.Send(Packet{From: "a", To: "b", Size: 250})
	s.Run()
	if got := m.BytesSent.Value(); got != 350 {
		t.Fatalf("bytes = %g", got)
	}
	if sent, dropped := m.PacketsSent.Value(), m.PacketsDropped.Value(); sent != 2 || dropped != 0 {
		t.Fatalf("sent %g dropped %g, want 2 and 0", sent, dropped)
	}
	if len(b.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(b.pkts))
	}
}

func TestHandlerFunc(t *testing.T) {
	s := New(1)
	n := NewNetwork(s)
	var got Packet
	n.Attach("h", HandlerFunc(func(p Packet) { got = p }))
	n.Send(Packet{From: "x", To: "h", Size: 5, Payload: "hello"})
	s.Run()
	if got.Payload != "hello" {
		t.Fatalf("payload = %v", got.Payload)
	}
}

func TestNetworkString(t *testing.T) {
	s := New(1)
	n := NewNetwork(s)
	if n.String() == "" {
		t.Fatal("empty String")
	}
}
