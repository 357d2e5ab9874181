// Package capture records packet-level events at simulated hosts — the
// study's tcpdump stand-in — and serializes them in a compact binary
// trace format so experiment runs can be captured once and re-analyzed
// offline (the paper's datasets A and B workflow).
package capture

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"time"

	"fesplit/internal/tcpsim"
)

// FlagRetrans marks a retransmitted segment in Event.Flags. It is bit 7,
// which the TCP control bits leave free (Flags.String ignores it) and
// which the trace file's flags byte carries as is.
const FlagRetrans tcpsim.Flags = 0x80

// Event is one captured packet at the capturing host: what a tcpdump
// line shows, and the row of the binary trace file. It is a flat,
// pointer-free 48 bytes; the captured payload bytes and the SACK blocks
// a few ACKs carry live beside the rows (Recorder.Payloads,
// Recorder.SACK).
type Event struct {
	// Time is virtual time at the capturing host when the segment was
	// sent or delivered.
	Time     time.Duration
	Seq, Ack uint64
	Wnd      uint32
	// Len is the payload length on the wire (tcpdump's plen); Cap is how
	// many of those bytes the capture holds (its caplen, ≤ Len). A
	// recorder keeps all of them, or none when it snaps or the segment
	// was content-free to begin with.
	Len, Cap         uint32
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
func (e Event) Snapped() bool { return e.Len > e.Cap }

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

// Trace is an ordered list of events captured at one node.
type Trace struct {
	Node string
	// Hosts lists the remote hosts in first-seen order; Event.Host
	// indexes it.
	Hosts  []string
	Events []Event
	// payloads holds the captured bytes of the events with Cap > 0, in
	// event order.
	payloads [][]byte
	// sacks holds the SACK blocks of the few events that carried any,
	// by index into Events.
	sacks map[int][]tcpsim.SACKBlock
}

// Recorder captures tap events from a tcpsim endpoint. Wire it up with
//
//	ep.Tap = recorder.Tap
//
// It files each packet under its connection as it taps it, so a
// connection's event list is its session: Session hands it out without
// a split pass, and only Trace pays for the node-wide time order.
type Recorder struct {
	node  string
	hosts []string
	// sess holds one event list per connection in first-seen order; the
	// first len(index) are live, the rest are storage ResetKeep kept.
	sess [][]Event
	// open lists, oldest first, the lists writing into a reused buffer.
	// A new list without kept storage takes the buffer of an open list
	// whose connection has closed — sealing that list into an exact-size
	// copy a late tap reallocates — or else a new buffer: a node keeps
	// about one buffer per connection open at a time. Session on an open
	// list hands its buffer out: the list leaves open and keeps it.
	open []int32
	// pays holds, per list, the captured bytes of its events with
	// Cap > 0 in order; only an unsnapped recorder fills it.
	pays  [][][]byte
	index map[uint64]int32 // packed connection → list
	// runs is the tap order, run-length coded: a node whose connections
	// follow one another keeps about one run per connection. taps is
	// the number of packets tapped.
	runs []tapRun
	taps int
	// sacks holds the SACK blocks of the few packets that carried any,
	// by tap position.
	sacks map[int][]tcpsim.SACKBlock
	// SnapPayload, when set, drops payload bytes at capture time while
	// preserving their length — tcpdump's snaplen. Timeline analysis
	// still works on snapped traces; content analysis does not, so
	// keep at least one unsnapped recorder per service for the
	// static-boundary probe. Length-only worlds snap every recorder.
	SnapPayload bool
	// OnFinal, when set before the first tap, takes each list once it is
	// final — a FIN each way and an inbound ACK of the local FIN: the
	// remote end sends nothing more — with events valid during the call.
	// The list then leaves the recorder (a later tap on its connection
	// opens a fresh one), and its slot and buffer, unless Session handed
	// it out, go to the next lists. Such a recorder keeps its lists only:
	// no tap order (Trace) and no SACK blocks.
	OnFinal func(k ConnKey, events []Event)
	// ends holds the lists' teardowns; free and spare hold the buffers
	// and list slots OnFinal emptied.
	ends  []teardown
	free  [][]Event
	spare []int32
}

// teardown is a list's close handshake so far: the ACK number covering
// the local FIN (0 before it), the remote FIN, and such an ACK.
type teardown struct {
	finAck         uint64
	peerFIN, acked bool
}

// tapRun is n consecutive taps on one list.
type tapRun struct{ list, n int32 }

// NewRecorder creates a recorder for the named node.
func NewRecorder(node string) *Recorder {
	return &Recorder{node: node, index: map[uint64]int32{}, sacks: map[int][]tcpsim.SACKBlock{}}
}

// Tap records one endpoint event; pass it as tcpsim.Endpoint.Tap. It
// keeps data (the sender's memory, never modified) unless snapping, and
// copies sack, which is only valid during the call.
func (r *Recorder) Tap(ev tcpsim.TapEvent, data []byte, sack []tcpsim.SACKBlock) {
	s := &ev.Segment
	e := Event{
		Time: ev.Time, Dir: ev.Dir, Host: r.host(ev.Remote),
		SrcPort: s.SrcPort, DstPort: s.DstPort, Flags: s.Flags,
		Seq: s.Seq, Ack: s.Ack, Wnd: s.Wnd, Len: s.Len,
	}
	if s.Retrans {
		e.Flags |= FlagRetrans
	}
	i := r.list(e.conn())
	if !r.SnapPayload && len(data) > 0 {
		e.Cap = uint32(len(data))
		r.pays[i] = append(r.pays[i], data)
	}
	r.sess[i] = append(r.sess[i], e)
	if r.OnFinal != nil {
		if r.ends[i].final(&e) {
			r.handOff(i, e.conn())
		}
		return
	}
	if len(sack) > 0 {
		r.sacks[r.taps] = slices.Clone(sack)
	}
	if n := len(r.runs); n > 0 && r.runs[n-1].list == i {
		r.runs[n-1].n++
	} else {
		r.runs = append(r.runs, tapRun{list: i, n: 1})
	}
	r.taps++
}

// final files one event of the list and reports whether it made the
// list final.
func (t *teardown) final(e *Event) bool {
	fin := e.Flags&tcpsim.FlagFIN != 0
	if e.Dir == tcpsim.DirSend {
		if fin {
			t.finAck = max(t.finAck, e.Seq+uint64(e.Len)+1)
		}
		return false
	}
	t.peerFIN = t.peerFIN || fin
	t.acked = t.acked || t.finAck > 0 && e.Flags&tcpsim.FlagACK != 0 && e.Ack >= t.finAck
	return t.peerFIN && t.acked
}

// handOff gives final list i, connection id's, to OnFinal and takes it
// out of the index: its slot goes to spare, an open list's buffer to
// free.
func (r *Recorder) handOff(i int32, id uint64) {
	l := r.sess[i]
	r.OnFinal(ConnKey{r.hosts[id>>32], uint16(id >> 16), uint16(id)}, l[:len(l):len(l)])
	delete(r.index, id)
	r.sess[i], r.ends[i], r.spare = nil, teardown{}, append(r.spare, i)
	clear(r.pays[i])
	r.pays[i] = r.pays[i][:0]
	if o := slices.Index(r.open, i); o >= 0 {
		r.open = slices.Delete(r.open, o, o+1)
		r.free = append(r.free, l[:0])
	}
}

// list returns connection id's list, opening one on first sight.
func (r *Recorder) list(id uint64) int32 {
	i, ok := r.index[id]
	if !ok {
		i = int32(len(r.index))
		if n := len(r.spare); n > 0 {
			i, r.spare = r.spare[n-1], r.spare[:n-1]
		}
		r.index[id] = i
		if len(r.sess) == int(i) {
			r.sess = append(r.sess, nil)
			r.pays = append(r.pays, nil)
			if r.OnFinal != nil {
				r.ends = append(r.ends, teardown{})
			}
		}
		if cap(r.sess[i]) == 0 {
			r.sess[i] = r.buffer()
			r.open = append(r.open, i)
		}
	}
	return i
}

// buffer returns an empty buffer for a new open list: a free one, if
// any. Else, without OnFinal, every open list whose connection has
// closed is sealed into an exact-size copy and leaves open; the new list
// takes the first one's buffer, or with none closed a new buffer as
// large as the oldest open list's.
func (r *Recorder) buffer() (b []Event) {
	if n := len(r.free); n > 0 {
		b, r.free = r.free[n-1], r.free[:n-1]
		return b
	}
	open := r.open[:0]
	for _, j := range r.open {
		if r.OnFinal != nil || !closed(r.sess[j]) {
			open = append(open, j)
			continue
		}
		if b == nil {
			b = r.sess[j][:0]
		}
		r.sess[j] = slices.Clone(r.sess[j])
	}
	if r.open = open; b == nil && len(open) > 0 {
		b = make([]Event, 0, cap(r.sess[open[0]]))
	}
	return b
}

// closed reports whether a connection's events hold a FIN each way:
// its teardown is under way, and only the final ACK, or a FIN
// retransmitted when that ACK is lost, can follow (such a late tap
// regrows the sealed list).
func closed(evs []Event) bool {
	var fin [2]bool // per direction
	for _, e := range evs {
		fin[e.Dir] = fin[e.Dir] || e.Flags&tcpsim.FlagFIN != 0
	}
	return fin[0] && fin[1]
}

// host returns remote's index in the host table, adding it on first
// sight. A capturing host talks to a handful of others, so a scan beats
// a map.
func (r *Recorder) host(remote string) uint16 {
	i := slices.Index(r.hosts, remote)
	if i < 0 {
		i = len(r.hosts)
		r.hosts = append(r.hosts, remote)
	}
	return uint16(i)
}

// ConnKey identifies one TCP connection within a trace from the
// capturing host's perspective.
type ConnKey struct {
	Remote     string
	LocalPort  uint16
	RemotePort uint16
}

// conn packs k in this recorder's host numbering.
func (r *Recorder) conn(k ConnKey) uint64 {
	return connID(slices.Index(r.hosts, k.Remote), k.LocalPort, k.RemotePort)
}

// Session returns connection k's events in capture order, nil when k
// sent or received nothing. The slice is the recorder's own storage,
// capacity-capped so an append cannot write into it; later taps never
// change it, and it is valid until ResetKeep. Asked for an open list,
// Session hands out its buffer, which the recorder then leaves to that
// list.
func (r *Recorder) Session(k ConnKey) []Event {
	i, ok := r.index[r.conn(k)]
	if !ok {
		return nil
	}
	if o := slices.Index(r.open, i); o >= 0 {
		r.open = slices.Delete(r.open, o, o+1)
	}
	l := r.sess[i]
	return l[:len(l):len(l)]
}

// Payloads returns the captured bytes of connection k's events with
// Cap > 0, in Session(k) order: nil from a snapped recorder. Like
// Session it is the recorder's own storage, valid until ResetKeep.
func (r *Recorder) Payloads(k ConnKey) [][]byte {
	i, ok := r.index[r.conn(k)]
	if !ok {
		return nil
	}
	p := r.pays[i]
	return p[:len(p):len(p)]
}

// SACK returns the SACK blocks connection k's events carried, keyed by
// the event's position in Session(k).
func (r *Recorder) SACK(k ConnKey) map[int][]tcpsim.SACKBlock {
	i, ok := r.index[r.conn(k)]
	out, j, pos := map[int][]tcpsim.SACKBlock{}, 0, 0
	for _, run := range r.runs {
		if ok && run.list == i {
			for m := range int(run.n) {
				if b, sacked := r.sacks[j+m]; sacked {
					out[pos+m] = b
				}
			}
			pos += int(run.n)
		}
		j += int(run.n)
	}
	return out
}

// Trace copies the taps so far into one time-ordered trace: the codec's
// and the text renderer's input. Per-connection readers use Session.
func (r *Recorder) Trace() *Trace {
	t := &Trace{Node: r.node, Hosts: append([]string{}, r.hosts...),
		Events: make([]Event, 0, r.taps), sacks: maps.Clone(r.sacks)}
	pos, pay := make([]int32, len(r.index)), make([]int32, len(r.index))
	for _, run := range r.runs {
		i := run.list
		evs := r.sess[i][pos[i]:][:run.n]
		pos[i] += run.n
		t.Events = append(t.Events, evs...)
		for _, e := range evs {
			if e.Cap > 0 {
				t.payloads = append(t.payloads, r.pays[i][pay[i]])
				pay[i]++
			}
		}
	}
	return t
}

// ResetKeep discards accumulated events but keeps every list's storage,
// the buffers included. Streaming fleet campaigns reset a pooled
// slot's recorder after every folded session, so a slot's capture
// memory is allocated once and amortized over thousands of ephemeral
// clients. Sessions handed out before must not be read afterwards.
func (r *Recorder) ResetKeep() {
	for i := range r.sess {
		r.sess[i] = r.sess[i][:0]
		clear(r.pays[i])
		r.pays[i] = r.pays[i][:0]
	}
	r.open, r.spare = r.open[:0], r.spare[:0]
	clear(r.ends)
	r.hosts, r.runs, r.taps = r.hosts[:0], r.runs[:0], 0
	clear(r.index)
	clear(r.sacks)
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

// Payloads returns the captured bytes of connection k's events with
// Cap > 0, in event order — what Recorder.Payloads returns for a live
// capture.
func (t *Trace) Payloads(k ConnKey) [][]byte {
	var out [][]byte
	id := connID(slices.Index(t.Hosts, k.Remote), k.LocalPort, k.RemotePort)
	next := 0
	for _, e := range t.Events {
		if e.Cap == 0 || next == len(t.payloads) {
			continue
		}
		if e.conn() == id {
			out = append(out, t.payloads[next])
		}
		next++
	}
	return out
}

// Sessions splits a decoded trace into per-connection event lists,
// preserving event order, and returns the keys in first-seen order. A
// live capture is already split: see Recorder.Session.
func (t *Trace) Sessions() ([]ConnKey, map[ConnKey][]Event) {
	var order []ConnKey
	m := map[ConnKey][]Event{}
	for _, e := range t.Events {
		id := e.conn()
		k := ConnKey{t.Hosts[e.Host], uint16(id >> 16), uint16(id)}
		if _, seen := m[k]; !seen {
			order = append(order, k)
		}
		m[k] = append(m[k], e)
	}
	return order, m
}
