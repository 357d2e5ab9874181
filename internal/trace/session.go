// Package trace parses captured client-side packet events into the
// paper's Figure-2 session timeline:
//
//	tb ─ SYN sent            t1 ─ GET sent
//	t2 ─ ACK of GET          t3 ─ first static-content packet
//	t4 ─ last static packet  t5 ─ first dynamic-content packet
//	te ─ last payload packet
//
// t4 and t5 depend on where the static portion ends; the boundary is
// found either by cross-query content analysis (analysis.StaticBoundary)
// or by per-session temporal clustering (Session.TemporalBoundary), and
// then located in the byte stream with Session.Locate.
package trace

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"fesplit/internal/capture"
	"fesplit/internal/tcpsim"
)

// Errors returned by Parse.
var (
	ErrNoHandshake = errors.New("trace: no complete handshake in session")
	ErrNoRequest   = errors.New("trace: no outbound request in session")
	ErrNoResponse  = errors.New("trace: no response payload in session")
)

// maxStream bounds the response stream Parse accepts. A response is a
// search result page, not gigabytes; a sequence number beyond this is a
// corrupt or hostile capture, and refusing it keeps every offset inside
// int and Payload's one allocation bounded.
const maxStream = 1 << 30

// arrival records the first client arrival of a contiguous byte range of
// the response stream. Offsets are 0-based stream offsets (TCP seq − 1).
type arrival struct {
	start, end int // [start, end)
	at         time.Duration
}

// Session is one parsed query session.
type Session struct {
	Key capture.ConnKey

	// Timeline (Figure 2). T4 and T5 are zero until Locate is called.
	TB time.Duration // first SYN sent
	T1 time.Duration // GET sent
	T2 time.Duration // ACK of GET received
	T3 time.Duration // first response payload byte received
	T4 time.Duration // last static byte received (after Locate)
	T5 time.Duration // first dynamic byte received (after Locate)
	TE time.Duration // last response payload received

	// RTT is the handshake round-trip (SYN → SYN|ACK).
	RTT time.Duration

	// StreamLen is the length of the response stream in bytes (HTTP
	// header included — the paper counts it as static content).
	StreamLen int
	// PayloadComplete is false when any inbound payload bytes are
	// missing from the session: snapped or content-free in the capture,
	// or captured but not handed to the parser (timeline analysis still
	// valid; content analysis is not).
	PayloadComplete bool

	// Retransmissions seen in the capture (inbound data marked
	// retransmitted).
	Retransmissions int

	events   []capture.Event // the parser's arguments, borrowed: what Payload reassembles
	payloads [][]byte
	arrivals []arrival // sorted by stream offset, first arrivals only
	covered  []span    // the parse's covered ranges, kept for ParseInto to reuse
	boundary int       // located static/dynamic boundary, -1 if not set
}

// Parse reconstructs a Session's timeline from one connection's
// client-side events, in capture (time) order. It reads no payload
// bytes: a session whose capture holds some needs ParseCaptured for
// Payload. An inbound data packet outside the response stream (sequence
// number 0, or ending beyond maxStream) is an error naming the event.
func Parse(key capture.ConnKey, events []capture.Event) (*Session, error) {
	return ParseCaptured(key, events, nil)
}

// ParseCaptured is Parse with the captured bytes of the events
// (capture.Recorder.Payloads: one slice per event with Cap > 0, in
// order), which Payload reassembles. The session keeps references to
// both — not copies — so a caller that wants the payload must leave
// them alone until it has it.
func ParseCaptured(key capture.ConnKey, events []capture.Event, payloads [][]byte) (*Session, error) {
	s := &Session{}
	if err := ParseInto(s, key, events, payloads); err != nil {
		return nil, err
	}
	return s, nil
}

// ParseInto is ParseCaptured into s, reusing the storage of the session
// s held: a caller parsing one session after another into one Session
// allocates nothing once it has seen the longest. On an error s holds
// no valid session.
func ParseInto(s *Session, key capture.ConnKey, events []capture.Event, payloads [][]byte) error {
	*s = Session{Key: key, boundary: -1, PayloadComplete: true, events: events, payloads: payloads,
		arrivals: s.arrivals[:0], covered: s.covered[:0]}
	var (
		sawSYN, sawSYNACK, sawGET, sawAckOfGET bool
		reqLen                                 uint64
		inbound, captured                      int
	)
	for _, ev := range events {
		if ev.Dir == tcpsim.DirRecv && ev.Len > 0 {
			inbound++
		}
		if ev.Cap > 0 {
			captured++
		}
	}
	s.arrivals = slices.Grow(s.arrivals, inbound)
	if captured != len(payloads) { // none given, or not these events'
		s.PayloadComplete, s.payloads = false, nil
	}
	for i, ev := range events {
		// Payload length survives snapping (tcpdump snaplen-style
		// captures drop bytes but keep sizes).
		plen := int(ev.Len)
		switch ev.Dir {
		case tcpsim.DirSend:
			if ev.Flags&tcpsim.FlagSYN != 0 && !sawSYN {
				sawSYN = true
				s.TB = ev.Time
			}
			if plen > 0 && !sawGET {
				sawGET = true
				s.T1 = ev.Time
				reqLen = ev.Seq + uint64(plen) - 1 // bytes of request stream
			}
		case tcpsim.DirRecv:
			if ev.Flags&tcpsim.FlagSYN != 0 && ev.Flags&tcpsim.FlagACK != 0 && !sawSYNACK {
				sawSYNACK = true
				s.RTT = ev.Time - s.TB
			}
			if !sawAckOfGET && sawGET && ev.Flags&tcpsim.FlagACK != 0 && ev.Ack > reqLen {
				sawAckOfGET = true
				s.T2 = ev.Time
			}
			if plen > 0 {
				if ev.Seq == 0 || ev.Seq > maxStream || ev.Seq-1+uint64(plen) > maxStream {
					return fmt.Errorf("trace: event %d: %d payload bytes at seq %d lie outside the response stream (1 … %d)",
						i, plen, ev.Seq, maxStream)
				}
				if ev.Retransmitted() {
					s.Retransmissions++
				}
				if ev.Snapped() {
					s.PayloadComplete = false
				}
				if s.StreamLen == 0 {
					s.T3 = ev.Time
				}
				start := int(ev.Seq - 1) // response stream offset
				s.StreamLen = max(s.StreamLen, start+plen)
				s.TE = max(s.TE, ev.Time)
				s.covered = s.arrive(s.covered, start, start+plen, ev.Time)
			}
		}
	}
	if !sawSYN || !sawSYNACK {
		return ErrNoHandshake
	}
	if !sawGET {
		return ErrNoRequest
	}
	if s.StreamLen == 0 {
		return ErrNoResponse
	}
	// First-arrival ranges are disjoint, so the order by start is total.
	byStart := func(a, b arrival) int { return cmp.Compare(a.start, b.start) }
	if !slices.IsSortedFunc(s.arrivals, byStart) {
		slices.SortFunc(s.arrivals, byStart)
	}
	return nil
}

// span is a covered range [start, end) of the response stream.
type span struct{ start, end int }

// arrive records the inbound payload [start, end) received at time at:
// the parts of it not in covered — sorted, disjoint ranges of what
// earlier packets brought — are first arrivals, and the whole range
// joins covered, which is returned. Packets come in time order, so what
// is covered arrived no later. Intervals instead of a per-byte bitmap:
// retransmission-heavy traces used to zero and walk a payload-sized
// bool slice per session.
func (s *Session) arrive(covered []span, start, end int, at time.Duration) []span {
	// First covered interval that could overlap or abut [start,end).
	lo := sort.Search(len(covered), func(i int) bool { return covered[i].end >= start })
	// Emit the uncovered gaps in ascending offset order.
	pos, j := start, lo
	for pos < end {
		if j < len(covered) && covered[j].start <= pos {
			if covered[j].end > pos {
				pos = covered[j].end
			}
			j++
			continue
		}
		gapEnd := end
		if j < len(covered) && covered[j].start < gapEnd {
			gapEnd = covered[j].start
		}
		if pos < gapEnd {
			s.arrivals = append(s.arrivals, arrival{start: pos, end: gapEnd, at: at})
			pos = gapEnd
		}
	}
	// Splice [start,end) into the covered set, merging every interval
	// it overlaps or abuts.
	hi, merged := lo, span{start, end}
	for hi < len(covered) && covered[hi].start <= end {
		if covered[hi].start < merged.start {
			merged.start = covered[hi].start
		}
		if covered[hi].end > merged.end {
			merged.end = covered[hi].end
		}
		hi++
	}
	if hi == lo {
		covered = append(covered, span{})
		copy(covered[lo+1:], covered[lo:])
		covered[lo] = merged
		return covered
	}
	covered[lo] = merged
	return append(covered[:lo+1], covered[hi:]...)
}

// Payload reassembles the response byte stream from the captured bytes
// ParseCaptured was given. It holds zeroes where bytes were not
// captured, and is nil when the session has no response bytes at all
// (snapped, a length-only world, or parsed without its payloads);
// PayloadComplete reports whether every byte is genuine. Each call
// builds a fresh StreamLen-byte slice: the one reader is the
// cross-query content analysis, over a handful of sessions.
func (s *Session) Payload() []byte {
	if s.payloads == nil {
		return nil
	}
	var p []byte
	next := 0
	for _, ev := range s.events {
		if ev.Cap == 0 {
			continue
		}
		data := s.payloads[next]
		next++
		if ev.Dir == tcpsim.DirRecv && ev.Len > 0 {
			if p == nil {
				p = make([]byte, s.StreamLen)
			}
			copy(p[ev.Seq-1:], data)
		}
	}
	return p
}

// ArrivalOf returns the first time the byte at stream offset arrived.
func (s *Session) ArrivalOf(offset int) (time.Duration, error) {
	for _, a := range s.arrivals {
		if offset >= a.start && offset < a.end {
			return a.at, nil
		}
	}
	return 0, fmt.Errorf("trace: offset %d never received (stream len %d)", offset, s.StreamLen)
}

// Locate sets T4/T5 for the given static/dynamic boundary: the static
// portion is stream bytes [0, boundary), the dynamic portion the rest.
func (s *Session) Locate(boundary int) error {
	if boundary <= 0 || boundary >= s.StreamLen {
		return fmt.Errorf("trace: boundary %d outside stream (len %d)", boundary, s.StreamLen)
	}
	t4, err := s.ArrivalOf(boundary - 1)
	if err != nil {
		return err
	}
	t5, err := s.ArrivalOf(boundary)
	if err != nil {
		return err
	}
	s.T4, s.T5 = t4, t5
	s.boundary = boundary
	return nil
}

// Boundary returns the located boundary, or -1.
func (s *Session) Boundary() int { return s.boundary }

// Measured parameters (valid after Locate):

// Tstatic is t4 − t2: static-portion processing+delivery beyond one RTT.
func (s *Session) Tstatic() time.Duration { return s.T4 - s.T2 }

// Tdynamic is t5 − t2: the upper bound on the FE-BE fetch time.
func (s *Session) Tdynamic() time.Duration { return s.T5 - s.T2 }

// Tdelta is t5 − t4: the lower bound on the FE-BE fetch time.
func (s *Session) Tdelta() time.Duration { return s.T5 - s.T4 }

// Overall is te − tb: the user-perceived response time.
func (s *Session) Overall() time.Duration { return s.TE - s.TB }

// ChunkStartAtOrBelow returns the largest first-arrival chunk start that
// is ≤ off, or -1 when no chunk starts at or below off. Content analysis
// overshoots the true static/dynamic boundary when dynamic bodies share
// a templated prefix; snapping the byte-level LCP down to a packet edge
// reconciles it with the transport-level reality, as the paper does by
// combining content analysis with temporal clustering.
func (s *Session) ChunkStartAtOrBelow(off int) int {
	best := -1
	for _, a := range s.arrivals {
		if a.start <= off && a.start > best {
			best = a.start
		}
	}
	return best
}

// TemporalBoundary estimates the static/dynamic boundary from packet
// timing alone: the byte offset following the largest inter-arrival gap,
// provided that gap dominates (≥ domFactor× the next largest and ≥
// minGap). This reproduces the paper's temporal clustering, which is
// reliable at small RTT and degrades as the clusters merge.
func (s *Session) TemporalBoundary(minGap time.Duration, domFactor float64) (int, bool) {
	if len(s.arrivals) < 2 {
		return 0, false
	}
	// Arrivals sorted by offset; in a well-formed session times are
	// (weakly) increasing with offset for first arrivals.
	var gap1, gap2 time.Duration
	idx := -1
	for i := 1; i < len(s.arrivals); i++ {
		g := s.arrivals[i].at - s.arrivals[i-1].at
		if g > gap1 {
			gap2 = gap1
			gap1 = g
			idx = i
		} else if g > gap2 {
			gap2 = g
		}
	}
	if idx < 0 || gap1 < minGap {
		return 0, false
	}
	if gap2 > 0 && float64(gap1) < domFactor*float64(gap2) {
		return 0, false
	}
	return s.arrivals[idx].start, true
}

// String summarizes the session timeline for debugging and reports.
func (s *Session) String() string {
	b := s.boundary
	return fmt.Sprintf(
		"session(%s:%d rtt=%v t1=%v t2=%v t3=%v t4=%v t5=%v te=%v bytes=%d boundary=%d retrans=%d complete=%v)",
		s.Key.Remote, s.Key.LocalPort, s.RTT, s.T1, s.T2, s.T3, s.T4, s.T5, s.TE,
		s.StreamLen, b, s.Retransmissions, s.PayloadComplete)
}
