package tcpsim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"fesplit/internal/simnet"
)

// laneTransfers runs k short lossy request/response conversations one
// after another in one Sim, each on a fresh connection. It returns each
// conversation's transcript and the lane's free-list length once each
// conversation has drained.
func laneTransfers(t *testing.T, k int) ([]*transcript, []int) {
	t.Helper()
	const size = 12 << 10
	sim := simnet.New(5)
	n := simnet.NewNetwork(sim)
	n.SetLink("c", "s", simnet.PathParams{Delay: 8 * time.Millisecond, LossRate: 0.05})
	cfg := Config{SACK: true}
	client := NewEndpoint(n, "c", cfg)
	server := NewEndpoint(n, "s", cfg)

	payload := make([]byte, size)
	var srv, cli *Conn
	if _, err := server.Listen(80, func(c *Conn) {
		srv = c
		c.Send(payload)
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	trs := make([]*transcript, k)
	free := make([]int, k)
	var next func(i int)
	next = func(i int) {
		if i > 0 {
			tr, l := trs[i-1], sim.FastLane().(*fastLane)
			tr.clientM, tr.serverM = cli.Metrics(), srv.Metrics()
			if l.Len() != 0 {
				t.Fatalf("conversation %d: %d deliveries still queued", i-1, l.Len())
			}
			free[i-1] = len(l.free)
		}
		if i == k {
			return
		}
		tr := &transcript{}
		trs[i] = tr
		client.Tap, server.Tap = tr.tap("c"), tr.tap("s")
		c := client.Dial("s", 80)
		cli = c
		c.OnData = func(b []byte) { tr.gotLen += len(b) }
		c.OnClose = func() {
			c.Close()
			if tr.gotLen != size {
				t.Fatalf("conversation %d incomplete: %d/%d bytes", i, tr.gotLen, size)
			}
			sim.Schedule(5*time.Second, func() { next(i + 1) })
		}
	}
	sim.ScheduleAt(0, func() { next(0) })
	sim.Run()
	return trs, free
}

// TestLaneStorageFollowsInFlight: a drained ring hands its slot array
// back to the lane, so conversations on fresh connections reuse the
// same few arrays — the free list after the fiftieth is the free list
// after the first — and a reused array is invisible: each conversation
// reproduces the transcript the packet path produced for it (a client's
// FIN ladder can outlive the idle gap, so a transcript holds the tail
// of the one before it too).
func TestLaneStorageFollowsInFlight(t *testing.T) {
	const k = 50
	trs, free := laneTransfers(t, k)
	if free[0] < 1 || free[k-1] != free[0] {
		t.Fatalf("free list after conversation 1: %d arrays, after %d: %d; want equal and non-zero", free[0], k, free[k-1])
	}
	retrans := 0
	for i, tr := range trs {
		retrans += tr.serverM.Retransmits
		checkFrozen(t, fmt.Sprintf("lane-storage/%02d", i), tr)
	}
	if retrans == 0 {
		t.Fatal("no conversation lost a segment: the lossy path exercised nothing")
	}
}

// FuzzLaneRings drives the lane's storage directly: interleaved
// enqueues (bursts past a ring's 16 slots among them) and pops over up
// to six rings, against a model of per-ring FIFOs merged in (at, seq)
// order. The lane must pop the model's sequence and count what the
// model holds — each event with its bytes and SACK blocks — hand out
// only arrays with a cleared byte column from its free list, and
// hold exactly as many arrays as the peak number of non-empty rings.
// An op byte below 0xc0 enqueues a burst of 1 + op/6 on ring op%6; any
// other pops 1 + op&0x1f deliveries.
func FuzzLaneRings(f *testing.F) {
	f.Add([]byte{0, 0xc0, 55, 0xc4, 91, 0xdf}) // a reused array grows with head ≠ 0
	f.Add([]byte{2, 9, 4, 0xc1, 100, 0xc3, 36, 0xe5, 13, 0xff, 0xff, 0})
	f.Add([]byte{186, 187, 0xd0, 188, 189, 0xdf, 0xdf, 190, 0xdf, 0xdf, 0xdf})
	data := make([]byte, 8)
	f.Fuzz(func(t *testing.T, ops []byte) {
		l := &fastLane{}
		var rings [6]fastRing
		type want struct {
			ev   fastEvent
			data []byte
			sack []SACKBlock
		}
		var model []want
		var seq uint64
		nonEmpty, peak := 0, 0
		for _, op := range ops {
			if op < 0xc0 {
				r := &rings[op%6]
				for range 1 + int(op)/6 {
					if r.n == 0 {
						if n := len(l.free); n > 0 {
							for j, e := range l.free[n-1].evs {
								if e.data != nil {
									t.Fatalf("free array slot %d still pins %d bytes", j, len(e.data))
								}
							}
						}
						nonEmpty++
						peak = max(peak, nonEmpty)
					}
					seq++
					w := want{ev: fastEvent{at: r.tailAt + simnet.Time(seq%3), seq: seq,
						seg: Segment{Seq: seq, Len: uint32(seq % 8)}}, data: data[:seq%8]}
					if seq%5 == 0 {
						for k := range seq%3 + 1 {
							w.sack = append(w.sack, SACKBlock{Start: seq + k, End: seq + k + 1})
						}
						w.ev.seg.NSACK = uint8(len(w.sack))
					}
					l.enqueue(r, w.ev, w.data, w.sack)
					model = append(model, w)
				}
			} else {
				for range 1 + int(op&0x1f) {
					if len(model) == 0 {
						break
					}
					i := 0
					for j, w := range model {
						if w.ev.at < model[i].ev.at || w.ev.at == model[i].ev.at && w.ev.seq < model[i].ev.seq {
							i = j
						}
					}
					w := model[i]
					model = slices.Delete(model, i, i+1)
					r, got, data, sack := l.next()
					if got != w.ev || len(data) != len(w.data) || !slices.Equal(sack, w.sack) {
						t.Fatalf("popped %+v (%d bytes, SACK %v), model %+v (%d bytes, SACK %v)",
							got, len(data), sack, w.ev, len(w.data), w.sack)
					}
					if r.n == 0 {
						if r.evs != nil {
							t.Fatal("a drained ring kept its slot array")
						}
						nonEmpty--
					}
				}
			}
			if l.Len() != len(model) {
				t.Fatalf("lane holds %d deliveries, model %d", l.Len(), len(model))
			}
			if len(l.free)+nonEmpty != peak {
				t.Fatalf("%d free arrays + %d non-empty rings, peak %d non-empty", len(l.free), nonEmpty, peak)
			}
		}
	})
}
