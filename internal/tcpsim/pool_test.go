package tcpsim

import (
	"bytes"
	"testing"
	"time"

	"fesplit/internal/simnet"
)

// backing identifies a non-empty buffer's underlying array.
func backing(b []byte) *byte {
	if cap(b) == 0 {
		return nil
	}
	return &b[:1][0]
}

func TestSegPoolReusesBuffers(t *testing.T) {
	var p segPool
	data := []byte("hello segment payload")

	b1 := p.copyIn(data)
	if !bytes.Equal(b1, data) {
		t.Fatalf("copyIn = %q, want %q", b1, data)
	}
	id := backing(b1)
	p.put(b1)

	// Same-size round trip reuses the same backing array.
	b2 := p.copyIn(data)
	if backing(b2) != id {
		t.Fatal("copyIn after put did not reuse the pooled buffer")
	}
	p.put(b2)

	// A smaller request still fits the pooled capacity.
	b3 := p.copyIn(data[:4])
	if backing(b3) != id || len(b3) != 4 {
		t.Fatalf("smaller copyIn: backing reused=%v len=%d, want reuse with len 4", backing(b3) == id, len(b3))
	}
	p.put(b3)

	// An oversized request retires the undersized buffer and allocates.
	big := bytes.Repeat(data, 8)
	b4 := p.copyIn(big)
	if backing(b4) == id {
		t.Fatal("undersized pooled buffer was returned for an oversized request")
	}
	if !bytes.Equal(b4, big) {
		t.Fatal("oversized copyIn corrupted data")
	}

	// Zero-capacity buffers are not pooled.
	p.put(nil)
	if len(p.free) != 0 {
		t.Fatalf("free list holds %d buffers after put(nil), want 0", len(p.free))
	}
}

// TestSegPoolNoDualOwnership runs a lossy SACK transfer — the workload
// that keeps the out-of-order reassembly pool busiest — and asserts the
// ownership invariant at every delivered segment: a buffer is never
// simultaneously in an endpoint's free list and in a connection's ooo
// map, and the free list never holds the same backing array twice.
func TestSegPoolNoDualOwnership(t *testing.T) {
	tn := newTestNet(t, simnet.PathParams{Delay: 8 * time.Millisecond, LossRate: 0.08},
		Config{SACK: true})

	check := func(ep *Endpoint) {
		t.Helper()
		seen := map[*byte]string{}
		for i, b := range ep.segPool.free {
			id := backing(b)
			if id == nil {
				t.Fatalf("free list slot %d holds a zero-capacity buffer", i)
			}
			if prev, dup := seen[id]; dup {
				t.Fatalf("free list holds one backing array twice (%s and free-list)", prev)
			}
			seen[id] = "free-list"
		}
		for _, c := range ep.conns {
			for seq, b := range c.ooo {
				id := backing(b.data)
				if owner, dup := seen[id]; dup {
					t.Fatalf("ooo buffer for seq %d also owned by %s", seq, owner)
				}
				seen[id] = "ooo-map"
			}
		}
	}

	payload := bytes.Repeat([]byte("ownership-invariant-"), 2000) // ~40 KB
	if _, err := tn.server.Listen(80, func(c *Conn) {
		c.Send(payload)
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	c := tn.client.Dial("s", 80)
	c.OnData = func(b []byte) {
		got.Write(b)
		// The invariant must hold mid-transfer, while ooo buffers are
		// checked out, not just after teardown returns them all.
		check(tn.client)
		check(tn.server)
	}
	tn.sim.Run()

	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("transfer corrupted: got %d bytes, want %d", got.Len(), len(payload))
	}
	// After teardown every ooo buffer has been released back.
	for _, ep := range []*Endpoint{tn.client, tn.server} {
		for _, c := range ep.conns {
			if len(c.ooo) != 0 {
				t.Fatalf("connection still holds %d ooo buffers after run", len(c.ooo))
			}
		}
		check(ep)
	}
	if len(tn.client.segPool.free) == 0 {
		t.Fatal("lossy transfer never pooled a reassembly buffer; invariant untested")
	}
}
