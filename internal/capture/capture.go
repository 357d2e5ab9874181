// Package capture records packet-level events at simulated hosts — the
// study's tcpdump stand-in — and serializes them in a compact binary
// trace format so experiment runs can be captured once and re-analyzed
// offline (the paper's datasets A and B workflow).
package capture

import (
	"fmt"
	"io"
	"slices"
	"time"

	"fesplit/internal/tcpsim"
)

// FlagRetrans marks a retransmitted segment in Event.Flags. It is bit 7,
// which the TCP control bits leave free (Flags.String ignores it) and
// which the trace file's flags byte carries as is.
const FlagRetrans tcpsim.Flags = 0x80

// Event is one captured packet at the capturing host: what a tcpdump
// line shows, and the row of the binary trace file. It is a flat 64
// bytes; the SACK blocks a few ACKs carry live beside the rows, in the
// trace (see Trace.SACK).
type Event struct {
	// Time is virtual time at the capturing host when the segment was
	// sent or delivered.
	Time     time.Duration
	Seq, Ack uint64
	// Data is the captured payload: nil when the recorder snapped it
	// (tcpdump's snaplen) or the segment was content-free to begin with.
	Data []byte
	Wnd  uint32
	// Len is the payload length on the wire, whether or not Data holds
	// the bytes.
	Len              uint32
	SrcPort, DstPort uint16
	// Host is the other endpoint, as an index into Trace.Hosts.
	Host uint16
	// Dir is DirSend for outbound, DirRecv for inbound segments.
	Dir tcpsim.Dir
	// Flags holds the TCP control bits and FlagRetrans.
	Flags tcpsim.Flags
}

// Snapped reports whether the event lacks payload bytes it had on the
// wire: dropped at capture time, or never materialised.
func (e Event) Snapped() bool { return int(e.Len) > len(e.Data) }

// Retransmitted reports whether the sender marked the segment as a
// retransmission.
func (e Event) Retransmitted() bool { return e.Flags&FlagRetrans != 0 }

// connID packs a connection — remote host index, local port, remote
// port, from the capturing host's perspective — into one comparable
// word. Host −1 (not in the trace) packs to a word no event has.
func connID(host int, local, remote uint16) uint64 {
	return uint64(host)<<32 | uint64(local)<<16 | uint64(remote)
}

// conn is the event's connection: for outbound segments the local port
// is the source port, for inbound the destination.
func (e Event) conn() uint64 {
	if e.Dir == tcpsim.DirSend {
		return connID(int(e.Host), e.SrcPort, e.DstPort)
	}
	return connID(int(e.Host), e.DstPort, e.SrcPort)
}

// conn is k's connection in this trace's host numbering.
func (t *Trace) conn(k ConnKey) uint64 {
	return connID(slices.Index(t.Hosts, k.Remote), k.LocalPort, k.RemotePort)
}

// Trace is an ordered list of events captured at one node.
type Trace struct {
	Node string
	// Hosts lists the remote hosts in first-seen order; Event.Host
	// indexes it.
	Hosts  []string
	Events []Event
	// sacks holds the SACK blocks of the few events that carried any,
	// by index into Events.
	sacks map[int][]tcpsim.SACKBlock
}

// Recorder captures tap events from a tcpsim endpoint. Wire it up with
//
//	ep.Tap = recorder.Tap
type Recorder struct {
	trace Trace
	// SnapPayload, when set, drops payload bytes at capture time while
	// preserving their length — tcpdump's snaplen. Timeline analysis
	// still works on snapped traces; content analysis does not, so
	// keep at least one unsnapped recorder per service for the
	// static-boundary probe. Large campaigns (250 nodes × 720 repeats)
	// need snapping to stay within memory.
	SnapPayload bool
}

// NewRecorder creates a recorder for the named node.
func NewRecorder(node string) *Recorder {
	return &Recorder{trace: Trace{Node: node, sacks: map[int][]tcpsim.SACKBlock{}}}
}

// Tap records one endpoint event; pass it as tcpsim.Endpoint.Tap.
func (r *Recorder) Tap(ev tcpsim.TapEvent) {
	t, s := &r.trace, &ev.Segment
	e := Event{
		Time: ev.Time, Dir: ev.Dir, Host: t.host(ev.Remote),
		SrcPort: s.SrcPort, DstPort: s.DstPort, Flags: s.Flags,
		Seq: s.Seq, Ack: s.Ack, Wnd: uint32(s.Wnd), Len: uint32(s.PayloadLen()),
	}
	if s.Retrans {
		e.Flags |= FlagRetrans
	}
	if !r.SnapPayload {
		e.Data = s.Data
	}
	if len(s.SACK) > 0 {
		t.sacks[len(t.Events)] = s.SACK
	}
	if len(t.Events) == cap(t.Events) {
		// Explicit doubling: runtime append grows large slices by only
		// ~1.25×, and busy capture nodes re-copied six-figure event
		// lists several times over a campaign.
		grown := make([]Event, len(t.Events), max(2*cap(t.Events), 1024))
		copy(grown, t.Events)
		t.Events = grown
	}
	t.Events = append(t.Events, e)
}

// host returns remote's index in Hosts, adding it on first sight. A
// capturing host talks to a handful of others, so a scan beats a map.
func (t *Trace) host(remote string) uint16 {
	i := slices.Index(t.Hosts, remote)
	if i < 0 {
		i = len(t.Hosts)
		t.Hosts = append(t.Hosts, remote)
	}
	return uint16(i)
}

// Trace returns the accumulated trace. The returned value shares the
// recorder's backing storage.
func (r *Recorder) Trace() *Trace { return &r.trace }

// ResetKeep discards accumulated events but keeps the backing storage.
// Streaming fleet campaigns reset a pooled slot's recorder after every
// folded session; reusing the slab means a slot's capture memory is
// allocated once and amortized over thousands of ephemeral clients.
// Any previously returned Trace must not be read afterwards.
func (r *Recorder) ResetKeep() {
	r.trace.Hosts, r.trace.Events = r.trace.Hosts[:0], r.trace.Events[:0]
	clear(r.trace.sacks)
}

// ConnKey identifies one TCP connection within a trace from the
// capturing host's perspective.
type ConnKey struct {
	Remote     string
	LocalPort  uint16
	RemotePort uint16
}

// Session appends connection k's events to dst in capture order — the
// carve for a consumer that wants one connection out of a live recorder
// without paying for a full Sessions split.
func (t *Trace) Session(k ConnKey, dst []Event) []Event {
	id := t.conn(k)
	for _, e := range t.Events {
		if e.conn() == id {
			dst = append(dst, e)
		}
	}
	return dst
}

// SACK returns the SACK blocks connection k's events carried, keyed by
// the event's position in the connection's session.
func (t *Trace) SACK(k ConnKey) map[int][]tcpsim.SACKBlock {
	id, out, n := t.conn(k), map[int][]tcpsim.SACKBlock{}, 0
	for i, e := range t.Events {
		if e.conn() != id {
			continue
		}
		if b, ok := t.sacks[i]; ok {
			out[n] = b
		}
		n++
	}
	return out
}

// WriteText renders the trace in a tcpdump-like one-line-per-packet
// format, up to maxEvents lines (0 = all).
func (t *Trace) WriteText(w io.Writer, maxEvents int) {
	fmt.Fprintf(w, "trace node=%s events=%d\n", t.Node, len(t.Events))
	for i, ev := range t.Events {
		if maxEvents > 0 && i >= maxEvents {
			fmt.Fprintf(w, "… %d more events\n", len(t.Events)-maxEvents)
			return
		}
		retr := ""
		if ev.Retransmitted() {
			retr = " retrans"
		}
		snap := ""
		if ev.Snapped() {
			snap = " [snapped]"
		}
		fmt.Fprintf(w, "%12v %s %-18s %s seq=%d ack=%d len=%d wnd=%d%s%s\n",
			ev.Time, ev.Dir, t.Hosts[ev.Host], ev.Flags,
			ev.Seq, ev.Ack, ev.Len, ev.Wnd, retr, snap)
	}
}

// Sessions splits the trace into per-connection event lists, preserving
// event order, and returns the keys in first-seen order.
func (t *Trace) Sessions() ([]ConnKey, map[ConnKey][]Event) {
	// Count first, then carve per-connection windows off a single slab
	// sized to the whole trace: per-key append growth used to re-copy
	// every Event repeatedly on busy nodes.
	var (
		order  []ConnKey
		counts []int
		index  = make(map[uint64]int) // packed connection → position in order
	)
	for _, e := range t.Events {
		id := e.conn()
		i, seen := index[id]
		if !seen {
			i = len(order)
			index[id] = i
			order = append(order, ConnKey{t.Hosts[e.Host], uint16(id >> 16), uint16(id)})
			counts = append(counts, 0)
		}
		counts[i]++
	}
	slab := make([]Event, len(t.Events))
	wins := make([][]Event, len(order))
	for i, n := range counts {
		// Capacity-capped: a session's appends can never spill into the
		// next window.
		wins[i], slab = slab[:0:n], slab[n:]
	}
	for _, e := range t.Events {
		i := index[e.conn()]
		wins[i] = append(wins[i], e)
	}
	m := make(map[ConnKey][]Event, len(order))
	for i, k := range order {
		m[k] = wins[i]
	}
	return order, m
}
