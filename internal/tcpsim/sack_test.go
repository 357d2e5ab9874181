package tcpsim

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"fesplit/internal/simnet"
)

// dropper deterministically drops packets bound for the wrapped
// handler and forwards the rest. It counts two ordinals: drops names
// data-bearing first transmissions (1-based), mask names every arrival
// (bit i drops the (i+1)th packet) — the drop schedules of
// TestDropSchedules.
type dropper struct {
	h             simnet.Handler
	drops         map[int]bool
	mask          uint64
	seen, arrived int
}

func (d *dropper) Deliver(p simnet.Packet) {
	d.arrived++
	if d.arrived <= 64 && d.mask>>(d.arrived-1)&1 != 0 {
		return
	}
	if w, ok := p.Payload.(*wireSeg); ok && w.Len > 0 && !w.Retrans {
		d.seen++
		if d.drops[d.seen] {
			return
		}
	}
	d.h.Deliver(p)
}

// multiLossRig builds a transfer where several data segments of the
// same window are dropped on first transmission.
func multiLossRig(t *testing.T, sack bool, drops map[int]bool, payload []byte) (completion time.Duration, timeouts int) {
	t.Helper()
	cfg := Config{SACK: sack, InitialCwnd: 10, MSS: 1000}
	sim := simnet.New(11)
	n := simnet.NewNetwork(sim)
	n.SetLink("c", "s", simnet.PathParams{Delay: 40 * time.Millisecond})
	client := NewEndpoint(n, "c", cfg)
	server := NewEndpoint(n, "s", cfg)
	// Interpose the dropper on the client's inbound packets.
	n.Attach("c", &dropper{h: client, drops: drops})

	var srv *Conn
	if _, err := server.Listen(80, func(conn *Conn) {
		srv = conn
		conn.Send(payload)
		conn.Close()
	}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	var done time.Duration
	conn := client.Dial("s", 80)
	conn.OnData = func(b []byte) { got.Write(b) }
	conn.OnClose = func() { done = sim.Now(); conn.Close() }
	sim.Run()
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("sack=%v: corrupted transfer %d/%d bytes", sack, got.Len(), len(payload))
	}
	return done, srv.Metrics().Timeouts
}

func TestSACKReceiverReportsBlocks(t *testing.T) {
	cfg := Config{SACK: true, InitialCwnd: 10, MSS: 1000}
	sim := simnet.New(13)
	n := simnet.NewNetwork(sim)
	n.SetLink("c", "s", simnet.PathParams{Delay: 20 * time.Millisecond})
	client := NewEndpoint(n, "c", cfg)
	server := NewEndpoint(n, "s", cfg)
	n.Attach("c", &dropper{h: client, drops: map[int]bool{2: true}})

	sawSACK := false
	server.Tap = func(ev TapEvent, data []byte, sack []SACKBlock) {
		if int(ev.Segment.NSACK) != len(sack) {
			t.Errorf("segment counts %d SACK blocks, the tap got %d", ev.Segment.NSACK, len(sack))
		}
		if ev.Dir == DirRecv && len(sack) > 0 {
			sawSACK = true
			for _, b := range sack {
				if b.End <= b.Start {
					t.Errorf("degenerate SACK block %+v", b)
				}
			}
		}
	}
	if _, err := server.Listen(80, func(conn *Conn) {
		conn.Send(make([]byte, 8000))
		conn.Close()
	}); err != nil {
		t.Fatal(err)
	}
	conn := client.Dial("s", 80)
	conn.OnData = func([]byte) {}
	conn.OnClose = func() { conn.Close() }
	sim.Run()
	if !sawSACK {
		t.Fatal("no SACK blocks observed despite a hole")
	}
}

func TestSACKRecoversMultiLossFasterThanReno(t *testing.T) {
	// Three losses in one window: Reno needs ~one RTT (or an RTO) per
	// hole; SACK repairs them within recovery.
	payload := make([]byte, 40000)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	drops := map[int]bool{3: true, 5: true, 7: true}
	renoDone, renoTO := multiLossRig(t, false, drops, payload)
	sackDone, sackTO := multiLossRig(t, true, drops, payload)
	if sackDone >= renoDone {
		t.Fatalf("SACK (%v) not faster than Reno (%v) on multi-loss", sackDone, renoDone)
	}
	if sackTO > renoTO {
		t.Fatalf("SACK timeouts %d exceed Reno's %d", sackTO, renoTO)
	}
	t.Logf("multi-loss completion: reno=%v (timeouts %d), sack=%v (timeouts %d)",
		renoDone, renoTO, sackDone, sackTO)
}

func TestSACKStreamIntegrityQuick(t *testing.T) {
	f := func(seed int64, lossBase, sizeKB uint8) bool {
		loss := float64(lossBase%20) / 100
		size := (int(sizeKB)%64 + 1) << 10
		sim := simnet.New(seed)
		n := simnet.NewNetwork(sim)
		n.SetLink("c", "s", simnet.PathParams{Delay: 15 * time.Millisecond, LossRate: loss})
		cfg := Config{SACK: true}
		client := NewEndpoint(n, "c", cfg)
		server := NewEndpoint(n, "s", cfg)
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 2654435761)
		}
		if _, err := server.Listen(80, func(c *Conn) {
			c.Send(payload)
			c.Close()
		}); err != nil {
			return false
		}
		var got bytes.Buffer
		conn := client.Dial("s", 80)
		conn.OnData = func(b []byte) { got.Write(b) }
		conn.OnClose = func() { conn.Close() }
		sim.Run()
		return bytes.Equal(got.Bytes(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSACKScoreboardMergesAndPrunes(t *testing.T) {
	c := &Conn{ep: &Endpoint{cfg: Config{}.withDefaults()}}
	c.addSACK([]SACKBlock{{Start: 100, End: 200}})
	c.addSACK([]SACKBlock{{Start: 150, End: 300}}) // overlap → merge
	c.addSACK([]SACKBlock{{Start: 400, End: 500}})
	if len(c.sacked) != 2 || c.sacked[0] != (SACKBlock{100, 300}) {
		t.Fatalf("scoreboard = %+v", c.sacked)
	}
	// Degenerate and stale blocks ignored.
	c.sndUna = 250
	c.addSACK([]SACKBlock{{Start: 50, End: 40}, {Start: 10, End: 20}})
	if len(c.sacked) != 2 {
		t.Fatalf("degenerate blocks accepted: %+v", c.sacked)
	}
	c.pruneSACK(250)
	if len(c.sacked) != 2 || c.sacked[0] != (SACKBlock{250, 300}) {
		t.Fatalf("prune = %+v", c.sacked)
	}
	c.pruneSACK(600)
	if len(c.sacked) != 0 {
		t.Fatalf("full prune left %+v", c.sacked)
	}
}

func TestSACKBlocksCapAtThree(t *testing.T) {
	c := &Conn{ep: &Endpoint{cfg: Config{SACK: true}.withDefaults()},
		ooo: []oooSeg{{seq: 10, n: 2}, {seq: 20, n: 2}, {seq: 30, n: 2}, {seq: 40, n: 2}, {seq: 50, n: 2}}}
	blocks := c.sackBuf[:c.sackBlocks()]
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d, want capped at 3", len(blocks))
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i].Start < blocks[i-1].End {
			t.Fatalf("blocks overlap: %+v", blocks)
		}
	}
}

func TestSACKContiguousOOOMergesToOneBlock(t *testing.T) {
	c := &Conn{ep: &Endpoint{cfg: Config{SACK: true}.withDefaults()},
		ooo: []oooSeg{
			{seq: 100, n: 50, data: make([]byte, 50)},
			{seq: 150, n: 50}, // contiguous, content-free
			{seq: 300, n: 10, data: make([]byte, 10)},
		}}
	blocks := c.sackBuf[:c.sackBlocks()]
	if len(blocks) != 2 || blocks[0] != (SACKBlock{100, 200}) || blocks[1] != (SACKBlock{300, 310}) {
		t.Fatalf("blocks = %+v", blocks)
	}
}
