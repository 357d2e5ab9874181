package capture

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"time"

	"fesplit/internal/tcpsim"
)

// FuzzDecode hardens the binary trace decoder: arbitrary input must
// produce an error or a valid trace, never a panic or runaway
// allocation — and a valid trace is one Encode writes back and Decode
// reads to the same value, so no field was wrapped or coerced on the
// way in.
func FuzzDecode(f *testing.F) {
	// Seed with a valid encoding and some corruptions of it.
	tr := (&Trace{Node: "seed", Hosts: []string{"fe"}, Events: []Event{
		{Time: time.Millisecond, Dir: tcpsim.DirSend, Flags: tcpsim.FlagSYN, Wnd: 1000},
		withData(Event{Time: 2 * time.Millisecond, Dir: tcpsim.DirRecv,
			Flags: tcpsim.FlagACK, Seq: 1, Ack: 1}, []byte("data")),
	}, sacks: map[int][]tcpsim.SACKBlock{1: {{Start: 9, End: 12}}}}).withPayloads([]byte("data"))
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("FESP"))
	f.Add([]byte{})
	corrupted := append([]byte(nil), valid...)
	for i := range corrupted {
		corrupted[i] ^= 0x5a
	}
	f.Add(corrupted)
	for _, tc := range malformed {
		f.Add(tc.raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got == nil {
			t.Fatal("nil trace without error")
		}
		if again := roundTrip(t, got); !reflect.DeepEqual(again, got) {
			t.Fatalf("decoded trace does not survive the codec:\nfirst  %+v\nsecond %+v", got, again)
		}
	})
}

// FuzzEncodeDecodeRoundTrip: any well-formed trace the fuzzer can build
// from primitive fields must round-trip exactly.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint32(5), uint16(80), uint16(40000), []byte("payload"))
	f.Fuzz(func(t *testing.T, dt uint32, src, dst uint16, payload []byte) {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		tr := &Trace{Node: "f", Hosts: []string{"r"}, Events: []Event{withData(Event{
			Time: time.Duration(dt), Dir: tcpsim.DirRecv, SrcPort: src, DstPort: dst,
			Flags: tcpsim.FlagACK, Seq: 1, Wnd: uint32(dst) << 8}, payload)},
			sacks: map[int][]tcpsim.SACKBlock{}}
		if len(payload) > 0 { // Decode spells "no captured bytes" as no entry
			tr.payloads = [][]byte{payload}
		}
		if src%2 == 1 {
			tr.Events[0].Flags |= FlagRetrans
			tr.sacks[0] = []tcpsim.SACKBlock{{Start: uint64(src), End: uint64(src) + uint64(dst)}}
		}
		if got := roundTrip(t, tr); !reflect.DeepEqual(got, tr) {
			t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, tr)
		}
	})
}

// FuzzRecorder is the recorder's differential: arbitrary tap sequences
// over four hosts and six local × two remote ports — connections
// interleaved, overlapping ones closing while others stay open, equal
// timestamps across them, SACK-carrying ACKs — in
// rounds separated by ResetKeep. After every round the recorder's
// Trace must be the taps in tap order (SACK blocks at the same
// positions, captured bytes unless snapping), each Session, Payloads
// and SACK must be what the trace gives that connection, and the trace
// must survive the codec. A Session taken mid-stream (bit 0x40 of a
// tap's last byte asks for its connection's) must never change after
// later taps and connection opens.
// Each tap is four input bytes; a first byte of 0xff ends the round.
// An input whose length is not a multiple of four sets OnFinal: then a
// list must go to OnFinal, capacity-capped, exactly when the model below
// calls it final, and leave the recorder — its session holds only later
// taps on its connection — which keeps no trace and no SACK blocks.
// Mutations: file a SACK under the trace position instead of the
// session position, keep a list's events across ResetKeep, or pass on
// a closed list's buffer without sealing the list, or a handed-out
// buffer at all; hand a list over before the ACK of the local FIN, or
// keep its events in the recorder after.
func FuzzRecorder(f *testing.F) {
	f.Add([]byte{
		0, 0, 0x12, 0x02, 1, 1, 0x02, 0x12, 0, 0, 0x07, 0x10, 4, 7, 0x10, 0x10,
		0xff, 0, 0, 0,
		2, 3, 0x20, 0x10, 2, 3, 0x06, 0x10, 6, 0x13, 0x00, 0x11,
	})
	f.Add([]byte{1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0x0a, 0x10, 0xff, 0, 0, 0, 0xff, 0, 0, 0})
	f.Add([]byte{0, 0, 0x10, 0x52, 0, 1, 0x12, 0x10, 0, 0, 0x16, 0x10, 0, 2, 0x10, 0x51, 0, 1, 0x00, 0x10})
	// Overlapping connections: A and B open; A's teardown completes (a
	// FIN each way, then the final ACK) while B stays open; C opens on
	// A's buffer, B takes taps and lends its buffer to a Session, D
	// opens on a new buffer, A takes a late retransmitted FIN, and B
	// closes and lends its buffer again before E opens on a new one.
	f.Add([]byte{
		0, 0, 0x10, 0x01, 0, 1, 0x10, 0x01, 4, 0, 0x10, 0x03, 0, 0, 0x10, 0x06,
		4, 0, 0x10, 0x06, 8, 0, 0x10, 0x02, 0, 2, 0x10, 0x01, 4, 1, 0x10, 0x43,
		0, 1, 0x10, 0x02, 0, 3, 0x10, 0x01, 4, 0, 0x11, 0x06,
		0, 1, 0x10, 0x06, 12, 1, 0x10, 0x06, 16, 1, 0x10, 0x42, 0, 4, 0x10, 0x01,
		0xff, 0, 0, 0,
		0, 1, 0x10, 0x01, 0, 2, 0x10, 0x01, 4, 1, 0x10, 0x02,
	})
	// OnFinal (trailing bytes): fe-a's connection opens, takes data and
	// closes, and the ACK of its FIN makes it final; then a late
	// retransmitted FIN opens a fresh list, and a second connection
	// opens on the buffer the first gave back and lends it to a Session.
	f.Add([]byte{
		0, 0, 0x10, 0x01, 4, 0, 0x10, 0x03, 4, 0, 0x14, 0x02, 4, 0, 0x10, 0x06,
		0, 0, 0x10, 0x06, 0x3c, 0, 0x10, 0x02, 0x3c, 0, 0x11, 0x06,
		0, 1, 0x10, 0x01, 4, 1, 0x14, 0x42, 0, 0,
	})
	// OnFinal: the ACK of the local FIN is lost — an ACK short of it
	// arrives, then the local FIN is retransmitted — so the list stays
	// to the round's end; the next round starts on the kept storage.
	f.Add([]byte{
		0, 0, 0x10, 0x01, 4, 0, 0x10, 0x03, 4, 0, 0x1c, 0x02, 4, 0, 0x10, 0x06,
		0, 0, 0x10, 0x06, 4, 0, 0x10, 0x02, 0, 0, 0x11, 0x06,
		0xff, 0, 0, 0,
		0, 0, 0x10, 0x01, 4, 0, 0x10, 0x03, 0, 0,
	})
	// OnFinal: overlapping connections A, B and C become final out of
	// order, C then A; D opens on a spare list while B is still open,
	// and B's hand-over must hold B's taps alone.
	f.Add([]byte{
		0, 0, 0x10, 0x01, 0, 1, 0x10, 0x01, 0, 2, 0x10, 0x01, 4, 0, 0x10, 0x03,
		4, 1, 0x10, 0x03, 4, 2, 0x10, 0x03, 4, 2, 0x14, 0x02, 4, 2, 0x10, 0x06,
		0, 2, 0x10, 0x06, 0x3c, 2, 0x10, 0x02, 4, 0, 0x16, 0x02, 4, 0, 0x10, 0x06,
		0, 0, 0x10, 0x06, 0x3c, 0, 0x10, 0x02, 0, 3, 0x10, 0x01, 4, 1, 0x14, 0x02,
		4, 3, 0x10, 0x03, 4, 1, 0x10, 0x06, 0, 1, 0x10, 0x06, 0x3c, 1, 0x10, 0x42,
		4, 3, 0x14, 0x02, 0, 0,
	})
	hosts := []string{"fe-a", "fe-b", "be", "cdn"}
	f.Fuzz(func(t *testing.T, in []byte) {
		rec := NewRecorder("n")
		rec.SnapPayload = len(in)%2 == 1
		type handoff struct {
			k      ConnKey
			events []Event
			capped bool
		}
		var handed []handoff
		if len(in)%4 != 0 {
			rec.OnFinal = func(k ConnKey, evs []Event) {
				handed = append(handed, handoff{k, slices.Clone(evs), cap(evs) == len(evs)})
			}
		}
		fresh := func() *Trace {
			return &Trace{Node: "n", Hosts: []string{}, Events: []Event{}, sacks: map[int][]tcpsim.SACKBlock{}}
		}
		want, now := fresh(), time.Duration(0)
		type held struct{ got, want []Event }
		var taken []held
		check := func() []ConnKey {
			for _, h := range taken {
				if !reflect.DeepEqual(h.got, h.want) {
					t.Fatalf("a session taken mid-stream changed:\ngot  %+v\nwant %+v", h.got, h.want)
				}
			}
			if got := rec.Trace(); rec.OnFinal == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("Trace is not the taps in tap order:\ngot  %+v\nwant %+v", got, want)
			} else if rec.OnFinal != nil && len(got.Events) > 0 {
				t.Fatalf("a recorder with OnFinal keeps a trace of %d events", len(got.Events))
			}
			keys, sessions := want.Sessions()
			sacks, pos := map[ConnKey]map[int][]tcpsim.SACKBlock{}, map[ConnKey]int{}
			for i, e := range want.Events {
				id := e.conn()
				k := ConnKey{want.Hosts[e.Host], uint16(id >> 16), uint16(id)}
				if sacks[k] == nil {
					sacks[k] = map[int][]tcpsim.SACKBlock{}
				}
				if b, ok := want.sacks[i]; ok {
					sacks[k][pos[k]] = b
				}
				pos[k]++
			}
			for _, k := range keys {
				s := rec.Session(k)
				if !reflect.DeepEqual(s, sessions[k]) || cap(s) != len(s) {
					t.Fatalf("Session(%v) = %+v (cap %d), want %+v capacity-capped", k, s, cap(s), sessions[k])
				}
				if b := rec.SACK(k); !reflect.DeepEqual(b, sacks[k]) {
					t.Fatalf("SACK(%v) = %+v, want %+v", k, b, sacks[k])
				}
				if p, want := rec.Payloads(k), want.Payloads(k); !slices.EqualFunc(p, want, bytes.Equal) {
					t.Fatalf("Payloads(%v) = %q, want %q", k, p, want)
				}
			}
			if s := rec.Session(ConnKey{Remote: "nowhere", LocalPort: 40000, RemotePort: 80}); s != nil {
				t.Fatalf("a connection never tapped has %d events", len(s))
			}
			if again := roundTrip(t, want); !reflect.DeepEqual(again, want) {
				t.Fatalf("recorded trace changed in the codec:\ngot  %+v\nwant %+v", again, want)
			}
			return keys
		}
		for ; len(in) >= 4; in = in[4:] {
			a, b, c, d := in[0], in[1], in[2], in[3]
			if a == 0xff {
				keys := check()
				rec.ResetKeep()
				taken = taken[:0]
				for _, k := range keys {
					if s := rec.Session(k); s != nil {
						t.Fatalf("session %v survived ResetKeep with %d events", k, len(s))
					}
				}
				want = fresh()
				continue
			}
			now += time.Duration(c >> 4) // 0: the same instant as the previous tap
			ev := tcpsim.TapEvent{Time: now, Dir: tcpsim.Dir(a >> 2 & 1), Remote: hosts[a%4],
				Segment: tcpsim.Segment{Flags: tcpsim.Flags(d & 0x3f), Retrans: c&1 != 0,
					Seq: uint64(len(want.Events)), Ack: uint64(a), Wnd: uint32(b) * 100}}
			local, remote := 40000+uint16(b%6), 80+uint16(b>>4&1)
			ev.Segment.SrcPort, ev.Segment.DstPort = local, remote
			if ev.Dir == tcpsim.DirRecv {
				ev.Segment.SrcPort, ev.Segment.DstPort = remote, local
			}
			var data []byte
			var sack []tcpsim.SACKBlock
			if c&4 != 0 {
				data = []byte{c, d}
				ev.Segment.Len = 2
			} else {
				ev.Segment.Len = uint32(c&8) * 180
			}
			if c&2 != 0 {
				sack = []tcpsim.SACKBlock{{Start: uint64(d), End: uint64(d) + uint64(c)}}
				ev.Segment.NSACK = 1
			}
			h := slices.Index(want.Hosts, ev.Remote)
			if h < 0 {
				h = len(want.Hosts)
				want.Hosts = append(want.Hosts, ev.Remote)
			}
			s := ev.Segment
			e := Event{Time: now, Dir: ev.Dir, Host: uint16(h), SrcPort: s.SrcPort, DstPort: s.DstPort,
				Flags: s.Flags, Seq: s.Seq, Ack: s.Ack, Wnd: s.Wnd, Len: s.Len}
			if s.Retrans {
				e.Flags |= FlagRetrans
			}
			if !rec.SnapPayload && data != nil {
				e.Cap = uint32(len(data))
				want.payloads = append(want.payloads, data)
			}
			if sack != nil && rec.OnFinal == nil {
				want.sacks[len(want.Events)] = sack
			}
			want.Events = append(want.Events, e)

			k := ConnKey{Remote: ev.Remote, LocalPort: local, RemotePort: remote}
			rec.Tap(ev, data, sack)
			if rec.OnFinal != nil {
				_, sessions := want.Sessions()
				final := finalModel(sessions[k])
				if len(handed) != 0 && (!final || len(handed) > 1 || handed[0].k != k) || final && len(handed) == 0 {
					t.Fatalf("tap %+v: lists handed over %+v, want %v's only when it is final (%v)", e, handed, k, final)
				}
				if final {
					if !reflect.DeepEqual(handed[0].events, sessions[k]) || !handed[0].capped {
						t.Fatalf("OnFinal got %+v (capped %v), want %+v capped", handed[0].events, handed[0].capped, sessions[k])
					}
					dropConn(want, e.conn())
				}
				handed = handed[:0]
			}
			if d&0x40 != 0 {
				s := rec.Session(k)
				taken = append(taken, held{s, slices.Clone(s)})
			}
		}
		check()
	})
}

// finalModel reports whether one connection's list is final, read from
// the whole list: some inbound ACK reaches past every local FIN tapped
// before it, and a remote FIN was tapped.
func finalModel(evs []Event) bool {
	acked, peerFIN := false, false
	for j, a := range evs {
		if a.Dir != tcpsim.DirRecv {
			continue
		}
		peerFIN = peerFIN || a.Flags&tcpsim.FlagFIN != 0
		fins, covered := 0, true
		for _, e := range evs[:j] {
			if e.Dir == tcpsim.DirSend && e.Flags&tcpsim.FlagFIN != 0 {
				fins++
				covered = covered && a.Ack > e.Seq+uint64(e.Len)
			}
		}
		acked = acked || a.Flags&tcpsim.FlagACK != 0 && fins > 0 && covered
	}
	return acked && peerFIN
}

// dropConn removes connection id's events from tr, with their captured
// bytes and SACK blocks, as a recorder does once OnFinal took them.
func dropConn(tr *Trace, id uint64) {
	evs, sacks := []Event{}, map[int][]tcpsim.SACKBlock{}
	var pays [][]byte
	next := 0
	for i, e := range tr.Events {
		keep := e.conn() != id
		if e.Cap > 0 {
			if keep {
				pays = append(pays, tr.payloads[next])
			}
			next++
		}
		if keep {
			if b, ok := tr.sacks[i]; ok {
				sacks[len(evs)] = b
			}
			evs = append(evs, e)
		}
	}
	tr.Events, tr.payloads, tr.sacks = evs, pays, sacks
}
