package capture

import (
	"bytes"
	"reflect"
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
	tr := &Trace{Node: "seed", Hosts: []string{"fe"}, Events: []Event{
		{Time: time.Millisecond, Dir: tcpsim.DirSend, Flags: tcpsim.FlagSYN, Wnd: 1000},
		withData(Event{Time: 2 * time.Millisecond, Dir: tcpsim.DirRecv,
			Flags: tcpsim.FlagACK, Seq: 1, Ack: 1}, []byte("data")),
	}, sacks: map[int][]tcpsim.SACKBlock{1: {{Start: 9, End: 12}}}}
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
		if len(payload) == 0 {
			payload = nil // Decode spells "no captured bytes" as nil
		}
		tr := &Trace{Node: "f", Hosts: []string{"r"}, Events: []Event{withData(Event{
			Time: time.Duration(dt), Dir: tcpsim.DirRecv, SrcPort: src, DstPort: dst,
			Flags: tcpsim.FlagACK, Seq: 1, Wnd: uint32(dst) << 8}, payload)},
			sacks: map[int][]tcpsim.SACKBlock{}}
		if src%2 == 1 {
			tr.Events[0].Flags |= FlagRetrans
			tr.sacks[0] = []tcpsim.SACKBlock{{Start: uint64(src), End: uint64(src) + uint64(dst)}}
		}
		if got := roundTrip(t, tr); !reflect.DeepEqual(got, tr) {
			t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, tr)
		}
	})
}
