package tcpsim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"fesplit/internal/simnet"
)

// Queued bytes are never modified, so anyone may point at them: the
// send queue holds the caller's slice, segments carry subslices of it,
// and the receiver's hole list and application keep those. These tests
// hold the guarantees that rule gives in place of the copies it
// replaced.

// TestLossyTransferExactAndNoHoleLeft runs a lossy SACK transfer — the
// workload that keeps the hole list busiest — and checks that the
// stream arrives byte-exact, that every slice OnData handed out still
// reads the same once the simulation has drained (nothing recycles or
// overwrites delivered memory), and that teardown leaves neither
// connection holding a hole entry or a pointer in the list's spare
// capacity.
func TestLossyTransferExactAndNoHoleLeft(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 8 * time.Millisecond, LossRate: 0.08},
		Config{SACK: true})
	// Aperiodic, so no two segments carry the same bytes, and long enough
	// for several loss episodes: a delivered slice that was reused for a
	// later out-of-order segment would read differently.
	payload := make([]byte, 120_000)
	rand.New(rand.NewSource(1)).Read(payload)
	var srv *Conn
	if _, err := tn.server.Listen(80, func(c *Conn) {
		srv = c
		c.Send(payload)
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}

	var (
		got      bytes.Buffer
		kept     [][]byte // every delivered slice, retained as handed out
		maxHoles int
	)
	c := tn.client.Dial("s", 80)
	c.OnData = func(b []byte) {
		got.Write(b)
		kept = append(kept, b)
		maxHoles = max(maxHoles, len(c.ooo))
	}
	c.OnClose = func() { c.Close() }
	tn.sim.Run()

	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("transfer corrupted: got %d bytes, want %d", got.Len(), len(payload))
	}
	off := 0
	for i, b := range kept {
		if !bytes.Equal(b, payload[off:off+len(b)]) {
			t.Fatalf("delivery %d (stream offset %d, %d bytes) changed after its callback returned", i, off, len(b))
		}
		off += len(b)
	}
	if maxHoles == 0 {
		t.Fatal("lossy transfer never held a segment out of order; guarantees untested")
	}
	for _, c := range []*Conn{c, srv} {
		if !c.Closed() || len(c.ooo) != 0 {
			t.Fatalf("after the run: closed %v, %d hole entries still held", c.Closed(), len(c.ooo))
		}
		for i, d := range c.ooo[:cap(c.ooo)] {
			if d.data != nil {
				t.Fatalf("spare hole-list slot %d still points at %d delivered bytes", i, len(d.data))
			}
		}
	}
}

// TestSendDoesNotCopy: the first full-MSS segment of a one-Send
// transfer is a subslice of the caller's array, capacity-capped so the
// receiver cannot append into the sender's memory.
func TestSendDoesNotCopy(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 5 * time.Millisecond}, Config{})
	payload := bytes.Repeat([]byte("x"), 10_000)
	if _, err := tn.server.Listen(80, func(c *Conn) {
		c.Send(payload)
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	mss := Config{}.withDefaults().MSS
	var first []byte
	tn.server.Tap = func(ev TapEvent, data []byte, sack []SACKBlock) {
		if ev.Dir == DirSend && first == nil && len(data) == mss {
			first = data
		}
	}
	tn.client.Dial("s", 80)
	tn.sim.Run()
	if first == nil {
		t.Fatal("no full-MSS data segment was sent")
	}
	if &first[0] != &payload[0] || cap(first) != mss {
		t.Fatalf("first segment: aliases the caller's array %v, cap %d (want true, %d)", &first[0] == &payload[0], cap(first), mss)
	}
}
