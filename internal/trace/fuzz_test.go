package trace

import (
	"bytes"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"fesplit/internal/capture"
	"fesplit/internal/tcpsim"
)

// hostileSeqs are response sequence numbers no capture of this system
// holds but a corrupt or crafted trace file can: capture.Decode checks
// field widths, not sequence sanity. 0 lies before the stream (offset
// −1); the other would size a buffer in exabytes.
var hostileSeqs = []uint64{0, 1<<63 - 10}

func TestParseRejectsHostileSequence(t *testing.T) {
	for _, seq := range hostileSeqs {
		evs, _ := mkEvents(10*time.Millisecond, []chunkSpec{
			{at: 30 * time.Millisecond, seq: 1, data: []byte("HELLO")},
			{at: 35 * time.Millisecond, seq: seq, data: []byte("WORLD")},
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Parse(key(), evs)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "event 6") {
			t.Fatalf("seq %d: Parse = %v, %v; want an error naming event 6", seq, s, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 {
			t.Fatalf("seq %d: Parse allocated %d bytes on the way to the error", seq, n)
		}
	}
}

// FuzzParse hardens the parser above the trace codec: any file Decode
// accepts must parse, session by session, to an error or to a session
// whose stream length, reassembled payload and first-arrival ranges
// agree — never a panic, never an allocation sized by a sequence
// number. Seeds: the committed capture and its two hostile variants.
func FuzzParse(f *testing.F) {
	raw, err := os.ReadFile("../capture/testdata/seed42-rtt40.trace")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	tr, err := capture.Decode(bytes.NewReader(raw))
	if err != nil {
		f.Fatal(err)
	}
	first := slices.IndexFunc(tr.Events, func(ev capture.Event) bool { return ev.Dir == tcpsim.DirRecv && ev.Len > 0 })
	for _, seq := range hostileSeqs {
		hostile := *tr
		hostile.Events = slices.Clone(tr.Events)
		hostile.Events[first].Seq = seq
		var buf bytes.Buffer
		if err := hostile.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := capture.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		keys, sessions := tr.Sessions()
		for _, k := range keys {
			s, err := ParseCaptured(k, sessions[k], tr.Payloads(k))
			if err != nil {
				continue
			}
			if s.StreamLen <= 0 || s.StreamLen > maxStream {
				t.Fatalf("%v: StreamLen %d outside (0, %d]", k, s.StreamLen, maxStream)
			}
			// The arrivals tile a subset of [0, StreamLen) in offset order
			// and reach its end; every time lies inside [T3, TE].
			pos := 0
			for _, a := range s.arrivals {
				if a.start < pos || a.end <= a.start || a.at < s.T3 || a.at > s.TE {
					t.Fatalf("%v: arrival %+v after offset %d, t3 %v, te %v", k, a, pos, s.T3, s.TE)
				}
				pos = a.end
			}
			if pos != s.StreamLen {
				t.Fatalf("%v: arrivals end at %d, StreamLen %d", k, pos, s.StreamLen)
			}
			if _, err := s.ArrivalOf(s.StreamLen - 1); err != nil {
				t.Fatalf("%v: last stream byte has no arrival: %v", k, err)
			}
			if s.StreamLen > 1<<20 {
				continue // a legal but huge stream: do not build it in a smoke run
			}
			if p := s.Payload(); p != nil && len(p) != s.StreamLen {
				t.Fatalf("%v: %d payload bytes, StreamLen %d", k, len(p), s.StreamLen)
			}
		}
	})
}
