package capture

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"fesplit/internal/tcpsim"
)

// Binary trace format:
//
//	magic   [4]byte  "FESP"
//	version uvarint  (3)
//	node    string   (uvarint length + bytes)
//	nremote uvarint  remote-host string table (Trace.Hosts)
//	  remote[i] string
//	nevents uvarint
//	  event:
//	    dtime   uvarint  (nanoseconds since previous event)
//	    dir     byte
//	    remote  uvarint  (string-table index)
//	    srcport uvarint
//	    dstport uvarint
//	    flags   byte     (bit 7 = retransmission, FlagRetrans)
//	    seq     uvarint
//	    ack     uvarint
//	    wnd     uvarint
//	    plen    uvarint  (original payload length, pre-snap)
//	    nsack   uvarint  (SACK blocks)
//	      start uvarint
//	      end   uvarint
//	    caplen  uvarint  (captured payload bytes, Event.Cap: ≤ plen, the
//	                      wire length; 0 when snapped or content-free)
//	    data    [caplen]byte
//
// All integers are unsigned varints; times are deltas, which keeps
// typical events under 20 bytes plus payload.

var traceMagic = [4]byte{'F', 'E', 'S', 'P'}

const traceVersion = 3

// ErrBadTrace reports a malformed or truncated trace stream.
var ErrBadTrace = errors.New("capture: malformed trace")

// Encode writes the trace to w in the binary format.
func (t *Trace) Encode(w io.Writer) error {
	// A bufio.Writer keeps its first write error, refuses further data
	// and returns the error from Flush — the one place it is checked.
	bw := bufio.NewWriter(w)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) { bw.Write(scratch[:binary.PutUvarint(scratch[:], v)]) }
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		bw.WriteString(s)
	}
	bw.Write(traceMagic[:])
	putUvarint(traceVersion)
	putString(t.Node)
	putUvarint(uint64(len(t.Hosts)))
	for _, h := range t.Hosts {
		putString(h)
	}
	putUvarint(uint64(len(t.Events)))
	prev, pay := time.Duration(0), 0
	for i, e := range t.Events {
		if e.Time < prev {
			return fmt.Errorf("capture: events out of order at t=%v", e.Time)
		}
		putUvarint(uint64(e.Time - prev))
		prev = e.Time
		bw.WriteByte(byte(e.Dir))
		putUvarint(uint64(e.Host))
		putUvarint(uint64(e.SrcPort))
		putUvarint(uint64(e.DstPort))
		bw.WriteByte(byte(e.Flags))
		putUvarint(e.Seq)
		putUvarint(e.Ack)
		putUvarint(uint64(e.Wnd))
		putUvarint(uint64(e.Len))
		sack := t.sacks[i]
		putUvarint(uint64(len(sack)))
		for _, b := range sack {
			putUvarint(b.Start)
			putUvarint(b.End)
		}
		putUvarint(uint64(e.Cap))
		if e.Cap > 0 {
			if pay == len(t.payloads) || len(t.payloads[pay]) != int(e.Cap) {
				return fmt.Errorf("capture: event %d: no %d captured bytes", i, e.Cap)
			}
			bw.Write(t.payloads[pay])
			pay++
		}
	}
	return bw.Flush()
}

// reader decodes the format's primitives. It keeps the first failure,
// as an ErrBadTrace naming the field, and reads zeroes after it, so
// Decode checks once per event instead of once per field.
type reader struct {
	br  *bufio.Reader
	err error
}

func (r *reader) fail(field string, why any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s: %v", ErrBadTrace, field, why)
	}
}

// checked returns v when the read succeeded and v ≤ max.
func (r *reader) checked(field string, v, max uint64, err error) uint64 {
	if err != nil {
		r.fail(field, err)
	} else if v > max {
		r.fail(field, fmt.Sprintf("%d exceeds %d", v, max))
	}
	if r.err != nil {
		return 0
	}
	return v
}

func (r *reader) uvarint(field string, max uint64) uint64 {
	v, err := binary.ReadUvarint(r.br)
	return r.checked(field, v, max, err)
}

func (r *reader) byte(field string, max byte) byte {
	b, err := r.br.ReadByte()
	return byte(r.checked(field, uint64(b), uint64(max), err))
}

// bytes reads a length-prefixed byte string of at most max bytes; nil
// when empty.
func (r *reader) bytes(field string, max uint64) []byte {
	n := r.uvarint(field+" length", max)
	if n == 0 {
		return nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		r.fail(field, err)
	}
	return buf
}

// Decode reads a trace from rd. Every field is range-checked against
// the in-memory row, so a corrupt file is an error, never a different
// valid trace.
func Decode(rd io.Reader) (*Trace, error) {
	r := &reader{br: bufio.NewReader(rd)}
	var magic [4]byte
	if _, err := io.ReadFull(r.br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic[:])
	}
	if ver := r.uvarint("version", math.MaxUint64); r.err == nil && ver != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, ver)
	}
	t := &Trace{Node: string(r.bytes("node name", 1<<20)), sacks: map[int][]tcpsim.SACKBlock{}}
	t.Hosts = make([]string, r.uvarint("host table size", math.MaxUint16+1))
	for i := range t.Hosts {
		t.Hosts[i] = string(r.bytes("host name", 1<<20))
	}
	ne := r.uvarint("event count", math.MaxUint64)
	t.Events = make([]Event, 0, min(ne, 1<<20))
	now := time.Duration(0)
	for i := uint64(0); i < ne && r.err == nil; i++ {
		// The reads below run in source order, which is the file's.
		now += time.Duration(r.uvarint("time delta", uint64(math.MaxInt64-now)))
		e := Event{
			Time:    now,
			Dir:     tcpsim.Dir(r.byte("direction", byte(tcpsim.DirRecv))),
			Host:    uint16(r.uvarint("remote host index", math.MaxUint16)),
			SrcPort: uint16(r.uvarint("source port", math.MaxUint16)),
			DstPort: uint16(r.uvarint("destination port", math.MaxUint16)),
			Flags:   tcpsim.Flags(r.byte("flags", math.MaxUint8)),
			Seq:     r.uvarint("seq", math.MaxUint64),
			Ack:     r.uvarint("ack", math.MaxUint64),
			Wnd:     uint32(r.uvarint("window", math.MaxUint32)),
			Len:     uint32(r.uvarint("payload length", math.MaxUint32)),
		}
		if int(e.Host) >= len(t.Hosts) {
			r.fail("remote host index", fmt.Sprintf("%d outside a table of %d", e.Host, len(t.Hosts)))
		}
		if n := r.uvarint("SACK block count", 8); n > 0 {
			blocks := make([]tcpsim.SACKBlock, n)
			for j := range blocks {
				blocks[j].Start = r.uvarint("SACK block start", math.MaxUint64)
				blocks[j].End = r.uvarint("SACK block end", math.MaxUint64)
			}
			t.sacks[len(t.Events)] = blocks
		}
		if data := r.bytes("captured payload", min(uint64(e.Len), 1<<24)); data != nil {
			e.Cap = uint32(len(data))
			t.payloads = append(t.payloads, data)
		}
		t.Events = append(t.Events, e)
	}
	if r.err != nil {
		return nil, r.err
	}
	return t, nil
}
