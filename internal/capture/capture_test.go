package capture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
)

// withData returns e with payload's length as both its wire and its
// captured length; the bytes go to the trace (withPayloads).
func withData(e Event, payload []byte) Event {
	e.Len, e.Cap = uint32(len(payload)), uint32(len(payload))
	return e
}

// withPayloads sets t's captured bytes: one per event with Cap > 0.
func (t *Trace) withPayloads(p ...[]byte) *Trace {
	t.payloads = p
	return t
}

func sampleTrace() *Trace {
	get, body := []byte("GET /search?q=x HTTP/1.1\r\n\r\n"), bytes.Repeat([]byte("s"), 1460)
	return (&Trace{
		Node:  "client-1",
		Hosts: []string{"fe-1"},
		Events: []Event{
			{Time: 0, Dir: tcpsim.DirSend, SrcPort: 40000, DstPort: 80, Flags: tcpsim.FlagSYN, Wnd: 65535},
			{Time: 20 * time.Millisecond, Dir: tcpsim.DirRecv,
				SrcPort: 80, DstPort: 40000, Flags: tcpsim.FlagSYN | tcpsim.FlagACK, Ack: 1, Wnd: 65535},
			{Time: 20 * time.Millisecond, Dir: tcpsim.DirSend,
				SrcPort: 40000, DstPort: 80, Flags: tcpsim.FlagACK, Seq: 1, Ack: 1, Wnd: 65535},
			withData(Event{Time: 21 * time.Millisecond, Dir: tcpsim.DirSend,
				SrcPort: 40000, DstPort: 80, Flags: tcpsim.FlagACK, Seq: 1, Ack: 1, Wnd: 65535},
				get),
			withData(Event{Time: 41 * time.Millisecond, Dir: tcpsim.DirRecv,
				SrcPort: 80, DstPort: 40000, Flags: tcpsim.FlagACK | FlagRetrans, Seq: 1, Ack: 29, Wnd: 65535},
				body),
		},
		sacks: map[int][]tcpsim.SACKBlock{},
	}).withPayloads(get, body)
}

// roundTrip encodes tr and decodes the bytes back.
func roundTrip(t testing.TB, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	if got := roundTrip(t, tr); !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, tr)
	}
}

// TestRowLayouts pins the row every workload stores per packet: 48
// bytes and pointer-free, so a session's event list is a noscan block.
// Mutation: put the payload slice back into Event, or add any field.
func TestRowLayouts(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 48 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 48", n)
	}
	var scanned func(t reflect.Type, path string) string
	scanned = func(t reflect.Type, path string) string {
		switch t.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			return path
		case reflect.Array:
			return scanned(t.Elem(), path+"[]")
		case reflect.Struct:
			for i := range t.NumField() {
				if p := scanned(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
					return p
				}
			}
		}
		return ""
	}
	if p := scanned(reflect.TypeOf(Event{}), "Event"); p != "" {
		t.Fatalf("Event holds a GC-visible field: %s", p)
	}
}

// The file format is frozen at version 3: a capture written by the
// build before the flat row (fesplit trace -seed 42 -rtt 40 -o) must
// decode, re-encode to the same bytes and render to the same text.
func TestParentCaptureByteIdentity(t *testing.T) {
	raw, err := os.ReadFile("testdata/seed42-rtt40.trace")
	if err != nil {
		t.Fatal(err)
	}
	wantText, err := os.ReadFile("testdata/seed42-rtt40.txt")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var enc, text bytes.Buffer
	if err := tr.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), raw) {
		t.Fatalf("re-encoded capture differs from the committed file (%d vs %d bytes)", enc.Len(), len(raw))
	}
	tr.WriteText(&text, 0)
	if text.String() != string(wantText) {
		t.Fatalf("WriteText differs from testdata/seed42-rtt40.txt:\n%s", text.String())
	}
}

func TestEncodeRejectsOutOfOrder(t *testing.T) {
	tr := &Trace{Node: "n", Hosts: []string{"r"}, Events: []Event{
		{Time: 10 * time.Millisecond},
		{Time: 5 * time.Millisecond},
	}}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err == nil {
		t.Fatal("out-of-order trace encoded without error")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NOPE....."))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Every strict prefix must fail, not panic.
	for _, cut := range []int{0, 1, 3, 5, 10, len(raw) / 2, len(raw) - 1} {
		if _, err := Decode(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated trace (%d bytes) decoded", cut)
		}
	}
}

// rawEvent is one event as the file spells it, every integer as wide as
// a uvarint can be.
type rawEvent struct {
	dir, flags                                byte
	host, src, dst, wnd, plen, nsack, datalen uint64
}

// rawTrace hand-encodes a one-event trace with a host table of nhosts
// entries, bypassing Encode's types.
func rawTrace(nhosts int, e rawEvent) []byte {
	b := append([]byte("FESP"), traceVersion, 1, 'n')
	b = binary.AppendUvarint(b, uint64(nhosts))
	for i := 0; i < nhosts; i++ {
		b = append(b, 1, 'h')
	}
	b = append(b, 1, 0, e.dir) // one event, dtime 0
	for _, v := range []uint64{e.host, e.src, e.dst} {
		b = binary.AppendUvarint(b, v)
	}
	b = append(b, e.flags, 1, 1) // seq 1, ack 1
	for _, v := range []uint64{e.wnd, e.plen, e.nsack, e.datalen} {
		b = binary.AppendUvarint(b, v)
	}
	return append(b, make([]byte, e.datalen)...)
}

// malformed are encodings the pre-flat decoder turned into a different
// valid trace (a port of 70000 became 4464, direction 2 printed as
// "recv") or that would wrap the flat row's narrower fields; each must
// be an ErrBadTrace naming the field. Mutation: drop any one bound in
// Decode and the matching row decodes.
var malformed = []struct {
	name, field string
	raw         []byte
}{
	{"source port 70000", "source port", rawTrace(1, rawEvent{src: 70000})},
	{"destination port 65536", "destination port", rawTrace(1, rawEvent{dst: 1 << 16})},
	{"direction 2", "direction", rawTrace(1, rawEvent{dir: 2})},
	{"datalen above plen", "captured payload", rawTrace(1, rawEvent{plen: 3, datalen: 4})},
	{"window 2^32", "window", rawTrace(1, rawEvent{wnd: 1 << 32})},
	{"payload length 2^32", "payload length", rawTrace(1, rawEvent{plen: 1 << 32})},
	{"host table of 65537", "host table size", rawTrace(1<<16+1, rawEvent{})},
	{"host index past the table", "remote host index", rawTrace(2, rawEvent{host: 2})},
	{"nine SACK blocks", "SACK block count", rawTrace(1, rawEvent{nsack: 9})},
}

func TestDecodeRejectsOutOfRange(t *testing.T) {
	if _, err := Decode(bytes.NewReader(rawTrace(1, rawEvent{src: 65535, dst: 80, dir: 1, flags: 0xff,
		wnd: 1<<32 - 1, plen: 4, datalen: 4}))); err != nil {
		t.Fatalf("every field at its bound: %v", err)
	}
	for _, tc := range malformed {
		_, err := Decode(bytes.NewReader(tc.raw))
		if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want ErrBadTrace naming %q", tc.name, err, tc.field)
		}
	}
}

func TestDecodeEmptyTrace(t *testing.T) {
	got := roundTrip(t, &Trace{Node: "idle-node"})
	if got.Node != "idle-node" || len(got.Events) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(times []uint32, payload []byte) bool {
		tr := &Trace{Node: "q", Hosts: []string{"r", "s"}, Events: []Event{}, sacks: map[int][]tcpsim.SACKBlock{}}
		now := time.Duration(0)
		for i, dt := range times {
			now += time.Duration(dt)
			ev := Event{
				Time: now, Dir: tcpsim.Dir(i % 2), Host: uint16(i % 2),
				SrcPort: uint16(i), DstPort: uint16(i * 3),
				Flags: tcpsim.Flags(i % 8), Seq: uint64(i) * 7,
				Ack: uint64(i) * 11, Wnd: uint32(i), Len: uint32(i % 5),
			}
			if i == 0 && len(payload) > 0 {
				ev = withData(ev, payload)
				tr.payloads = [][]byte{payload}
			}
			if i%4 == 3 {
				ev.Flags |= FlagRetrans
				tr.sacks[i] = []tcpsim.SACKBlock{{Start: uint64(i), End: uint64(i) + 9}}
			}
			tr.Events = append(tr.Events, ev)
		}
		return reflect.DeepEqual(roundTrip(t, tr), tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderCapturesLiveConnection(t *testing.T) {
	sim := simnet.New(3)
	n := simnet.NewNetwork(sim)
	n.SetLink("c", "s", simnet.PathParams{Delay: 10 * time.Millisecond})
	client := tcpsim.NewEndpoint(n, "c", tcpsim.Config{})
	server := tcpsim.NewEndpoint(n, "s", tcpsim.Config{})
	rec := NewRecorder("c")
	client.Tap = rec.Tap

	if _, err := server.Listen(80, func(c *tcpsim.Conn) {
		c.OnData = func(b []byte) { c.Send([]byte("response")); c.Close() }
	}); err != nil {
		t.Fatal(err)
	}
	conn := client.Dial("s", 80)
	conn.OnConnect = func() { conn.Send([]byte("request")) }
	conn.OnData = func([]byte) {}
	conn.OnClose = func() { conn.Close() }
	sim.Run()

	tr := rec.Trace()
	if len(tr.Events) < 6 {
		t.Fatalf("captured %d events, want full session", len(tr.Events))
	}
	if tr.Events[0].Flags != tcpsim.FlagSYN || !reflect.DeepEqual(tr.Hosts, []string{"s"}) {
		t.Fatalf("first event = %+v, hosts = %v", tr.Events[0], tr.Hosts)
	}
	// Round-trip the live capture through the codec.
	if got := roundTrip(t, tr); !reflect.DeepEqual(got, tr) {
		t.Fatalf("live capture changed in the codec:\ngot  %+v\nwant %+v", got, tr)
	}
	key := ConnKey{Remote: "s", LocalPort: tr.Events[0].SrcPort, RemotePort: 80}
	if got := rec.Session(key); !reflect.DeepEqual(got, tr.Events) {
		t.Fatalf("the one connection's session differs from the trace:\ngot  %+v\nwant %+v", got, tr.Events)
	}
	if got := rec.Payloads(key); len(got) != 2 || string(got[0]) != "request" || string(got[1]) != "response" {
		t.Fatalf("captured bytes = %q, want the request and the response", got)
	}
	rec.ResetKeep()
	if got := rec.Session(key); got != nil {
		t.Fatalf("reset did not clear: session holds %d events", len(got))
	}
	if tr := rec.Trace(); len(tr.Events) != 0 || len(tr.Hosts) != 0 {
		t.Fatalf("reset did not clear: trace holds %d events, %d hosts", len(tr.Events), len(tr.Hosts))
	}
}

// A warmed recorder (slab grown, ResetKeep, same host) must record a
// packet without allocating: the fleet taps 100 packets per query.
// Mutations: build the host table with a map keyed by a fresh string,
// or drop ResetKeep's reuse of the per-connection lists.
func TestTapWarmZeroAlloc(t *testing.T) {
	rec := NewRecorder("c")
	rec.SnapPayload = true
	ev := tcpsim.TapEvent{Remote: "fe", Dir: tcpsim.DirRecv,
		Segment: tcpsim.Segment{SrcPort: 80, DstPort: 40000, Flags: tcpsim.FlagACK, Len: 1460}}
	for i := 0; i < 200; i++ {
		rec.Tap(ev, nil, nil)
	}
	allocs := testing.AllocsPerRun(50, func() {
		rec.ResetKeep()
		for i := 0; i < 200; i++ {
			rec.Tap(ev, nil, nil)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Tap: %v allocs per 200 packets, want 0", allocs)
	}
	if e := rec.Trace().Events[0]; e.Len != 1460 || !e.Snapped() || e.Cap != 0 {
		t.Fatalf("snapped content-free event = %+v", e)
	}
}

// TestSessionsSplit: over random interleavings of k connections on two
// hosts, Sessions must hand every event to exactly one session, keep
// each session in capture order, list keys in first-seen order, and
// keep an append to one session out of every other.
// Mutations: share one backing array between sessions and the neighbour
// check fails; append keys on every event and the order check fails.
func TestSessionsSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		tr := &Trace{Node: "c", Hosts: []string{"fe", "other"}}
		var wantOrder []ConnKey
		want := map[ConnKey][]Event{}
		k := 1 + rng.Intn(6)
		for i, n := 0, rng.Intn(60); i < n; i++ {
			// Connection c: the host alternates, and two connections
			// share a local port on different hosts.
			c := rng.Intn(k)
			key := ConnKey{Remote: tr.Hosts[c%2], LocalPort: uint16(40000 + c/2), RemotePort: 80}
			ev := Event{Time: time.Duration(i), Host: uint16(c % 2), Dir: tcpsim.DirSend,
				SrcPort: key.LocalPort, DstPort: 80, Seq: uint64(i)}
			if rng.Intn(2) == 0 {
				ev.Dir, ev.SrcPort, ev.DstPort = tcpsim.DirRecv, 80, key.LocalPort
			}
			if _, seen := want[key]; !seen {
				wantOrder = append(wantOrder, key)
			}
			want[key] = append(want[key], ev)
			tr.Events = append(tr.Events, ev)
		}
		keys, got := tr.Sessions()
		if !reflect.DeepEqual(keys, wantOrder) {
			t.Fatalf("round %d: keys %v, want first-seen order %v", round, keys, wantOrder)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: sessions\ngot  %v\nwant %v", round, got, want)
		}
		for _, key := range keys {
			_ = append(got[key], Event{Seq: 1 << 40})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: appending to a session wrote into another's window", round)
		}
	}
}

func TestWriteTextRendering(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	tr.WriteText(&buf, 0)
	out := buf.String()
	for _, want := range []string{"trace node=client-1", "SYN|ACK", "retrans", "len=1460"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("WriteText missing %q:\n%s", want, out)
		}
	}
	// Truncation.
	buf.Reset()
	tr.WriteText(&buf, 2)
	if !bytes.Contains(buf.Bytes(), []byte("more events")) {
		t.Fatalf("no truncation marker:\n%s", buf.String())
	}
	// Snapped events are flagged; the retransmit mark is not a control bit.
	snapped := &Trace{Node: "s", Hosts: []string{"fe"}, Events: []Event{{Len: 100, Flags: tcpsim.FlagACK | FlagRetrans}}}
	buf.Reset()
	snapped.WriteText(&buf, 0)
	for _, want := range []string{"[snapped]", "len=100", " ACK seq=", " retrans"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("snapped rendering missing %q:\n%s", want, buf.String())
		}
	}
}

func TestCodecPreservesSACKBlocks(t *testing.T) {
	key := ConnKey{Remote: "fe", LocalPort: 40000, RemotePort: 80}
	ack := tcpsim.TapEvent{Time: time.Millisecond, Remote: "fe", Dir: tcpsim.DirSend,
		Segment: tcpsim.Segment{SrcPort: 40000, DstPort: 80, Flags: tcpsim.FlagACK, Ack: 1000, Wnd: 100}}
	other := ack
	other.Segment.SrcPort = 40001
	blocks := []tcpsim.SACKBlock{{Start: 2000, End: 3000}, {Start: 5000, End: 5500}}
	sacked := ack
	sacked.Segment.NSACK = uint8(len(blocks))
	// The SACK-carrying ACK is trace event 2 and its session's event 1.
	// The tap's blocks are only valid during the call: the recorder must
	// keep a copy.
	rec := NewRecorder("n")
	scratch := slices.Clone(blocks)
	rec.Tap(ack, nil, nil)
	rec.Tap(other, nil, nil)
	rec.Tap(sacked, nil, scratch)
	clear(scratch)
	if want := map[int][]tcpsim.SACKBlock{1: blocks}; !reflect.DeepEqual(rec.SACK(key), want) {
		t.Fatalf("SACK blocks = %+v, want %+v", rec.SACK(key), want)
	}
	if n := len(rec.SACK(ConnKey{Remote: "fe", LocalPort: 40001, RemotePort: 80})); n != 0 {
		t.Fatalf("the SACK-free connection reports %d SACK options", n)
	}
	tr := rec.Trace()
	if want := map[int][]tcpsim.SACKBlock{2: blocks}; !reflect.DeepEqual(tr.sacks, want) {
		t.Fatalf("trace SACK blocks = %+v, want %+v", tr.sacks, want)
	}
	if got := roundTrip(t, tr); !reflect.DeepEqual(got, tr) {
		t.Fatalf("SACK-carrying trace changed in the codec:\ngot  %+v\nwant %+v", got, tr)
	}
}
