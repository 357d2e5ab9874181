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
	"errors"
	"fmt"
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

	// Payload is the reassembled response byte stream (HTTP header
	// included — the paper counts it as static content). It holds
	// zeroes where bytes were not captured, and is nil when the capture
	// carries no response bytes at all (snapped, or a length-only
	// world); PayloadComplete reports whether every byte is genuine and
	// StreamLen is the stream's length either way.
	Payload []byte
	// StreamLen is the length of the response stream in bytes.
	StreamLen int
	// PayloadComplete is false when any inbound payload bytes are
	// missing from the capture (timeline analysis still valid; content
	// analysis is not).
	PayloadComplete bool

	// Retransmissions seen in the capture (inbound data marked
	// retransmitted).
	Retransmissions int

	arrivals []arrival // sorted by stream offset, first arrivals only
	boundary int       // located static/dynamic boundary, -1 if not set
}

// Parse reconstructs a Session from one connection's client-side events.
// Events must be in capture (time) order.
func Parse(key capture.ConnKey, events []capture.Event) (*Session, error) {
	s := &Session{Key: key, boundary: -1, PayloadComplete: true}
	var (
		sawSYN, sawSYNACK, sawGET, sawAckOfGET bool
		reqLen                                 uint64
	)
	type chunk struct {
		start, end int
		at         time.Duration
	}
	var chunks []chunk

	// Pre-scan: size the reassembly buffer and chunk list in one exact
	// allocation each. The per-chunk append-and-zero growth this
	// replaces was the top allocator in wireless-study profiles (every
	// extension allocated a fresh zeroed tail and often reallocated the
	// whole payload). A capture without response bytes reassembles
	// nothing: only the stream length is tracked.
	maxEnd, nChunks, hasBytes := 0, 0, false
	for _, ev := range events {
		if ev.Dir != tcpsim.DirRecv || ev.Len == 0 {
			continue
		}
		if len(ev.Data) > 0 {
			hasBytes = true
		}
		nChunks++
		if end := int(ev.Seq-1) + int(ev.Len); end > maxEnd {
			maxEnd = end
		}
	}
	if nChunks > 0 {
		chunks = make([]chunk, 0, nChunks)
	}
	if hasBytes {
		// Extended by reslicing as chunks land: the fresh backing array
		// is already zeroed, and only chunk copies write to it, so
		// never-received gaps read as zero exactly as before.
		s.Payload = make([]byte, 0, maxEnd)
	}

	for _, ev := range events {
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
				if ev.Retransmitted() {
					s.Retransmissions++
				}
				if ev.Snapped() {
					s.PayloadComplete = false
				}
				start := int(ev.Seq - 1) // response stream offset
				chunks = append(chunks, chunk{start: start, end: start + plen, at: ev.Time})
				if len(chunks) == 1 {
					s.T3 = ev.Time
				}
				if end := start + plen; end > s.StreamLen {
					s.StreamLen = end
				}
				// Reassemble whatever bytes were captured.
				if hasBytes {
					s.Payload = s.Payload[:s.StreamLen] // within the pre-scanned cap
					copy(s.Payload[start:], ev.Data)
				}
			}
		}
	}
	if !sawSYN || !sawSYNACK {
		return nil, ErrNoHandshake
	}
	if !sawGET {
		return nil, ErrNoRequest
	}
	if len(chunks) == 0 {
		return nil, ErrNoResponse
	}

	// First-arrival map: earliest time each stream offset was received.
	// Chunks are in time order, so keep only ranges not fully covered.
	// Coverage is tracked as sorted disjoint intervals instead of a
	// per-byte bitmap: retransmission-heavy traces used to zero and
	// walk a payload-sized bool slice per session.
	type span struct{ start, end int }
	var covered []span
	for _, c := range chunks {
		// First covered interval that could overlap or abut [start,end).
		lo := sort.Search(len(covered), func(i int) bool { return covered[i].end >= c.start })
		// Emit the uncovered gaps in ascending offset order — exactly
		// the ranges the bitmap walk marked fresh.
		pos, j := c.start, lo
		for pos < c.end {
			if j < len(covered) && covered[j].start <= pos {
				if covered[j].end > pos {
					pos = covered[j].end
				}
				j++
				continue
			}
			gapEnd := c.end
			if j < len(covered) && covered[j].start < gapEnd {
				gapEnd = covered[j].start
			}
			if pos < gapEnd {
				s.arrivals = append(s.arrivals, arrival{start: pos, end: gapEnd, at: c.at})
				pos = gapEnd
			}
		}
		// Splice [start,end) into the covered set, merging every
		// interval it overlaps or abuts.
		hi, merged := lo, span{c.start, c.end}
		for hi < len(covered) && covered[hi].start <= c.end {
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
		} else {
			covered[lo] = merged
			covered = append(covered[:lo+1], covered[hi:]...)
		}
		if c.at > s.TE {
			s.TE = c.at
		}
	}
	sort.Slice(s.arrivals, func(i, j int) bool { return s.arrivals[i].start < s.arrivals[j].start })
	return s, nil
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
