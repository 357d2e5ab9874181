// Package tcpsim implements a TCP transport over the simnet discrete-event
// network: three-way handshake, byte-stream delivery with MSS
// segmentation, cumulative ACKs, flow control, Reno congestion control
// (slow start, congestion avoidance, fast retransmit/recovery), RFC
// 6298-style retransmission timeouts, optional delayed ACKs and a
// configurable initial congestion window.
//
// The packet-event timeline of the paper's Figure 2 — handshake cluster,
// static-content cluster, dynamic-content cluster — emerges from these
// mechanisms rather than being synthesized, so the measurement pipeline
// exercises the same dynamics the authors observed with tcpdump.
//
// The API is callback-based: the simulation is single-threaded in virtual
// time, so connections invoke OnConnect/OnData/OnClose callbacks instead
// of blocking reads.
package tcpsim

import (
	"fmt"
	"time"
)

// Flags mark TCP control bits on a segment.
type Flags uint8

// Segment flag bits.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
)

// String renders flags in tcpdump style, e.g. "SYN|ACK".
func (f Flags) String() string {
	s := ""
	if f&FlagSYN != 0 {
		s += "SYN|"
	}
	if f&FlagACK != 0 {
		s += "ACK|"
	}
	if f&FlagFIN != 0 {
		s += "FIN|"
	}
	if s == "" {
		return "-"
	}
	return s[:len(s)-1]
}

// SACKBlock is one selective-acknowledgment range [Start, End) of
// received out-of-order data (RFC 2018).
type SACKBlock struct {
	Start, End uint64
}

// Segment is the TCP wire unit carried as a simnet packet payload.
// Sequence numbers are absolute 64-bit byte offsets (no wraparound — the
// simulator controls both ends, and search-response streams are far below
// 2^64 bytes).
type Segment struct {
	SrcPort uint16
	DstPort uint16
	Flags   Flags
	Retrans bool   // set on retransmissions (for traces/debugging)
	Seq     uint64 // first payload byte (or the SYN/FIN's sequence slot)
	Ack     uint64 // next byte expected from the peer (valid with FlagACK)
	Wnd     int    // advertised receive window in bytes
	Data    []byte // payload bytes; nil for control and content-free segments
	// Blank is the payload length of a content-free segment: bytes that
	// occupy sequence space and wire size but whose content no layer
	// built (see Conn.SendBlank). Meaningful only when Data is nil; a
	// segment is either all real bytes or all content-free. (Retrans
	// sits beside Flags so this field does not grow the struct, which
	// every captured event embeds.)
	Blank int
	// SACK carries up to three selective-ack blocks when the SACK
	// option is enabled and the receiver holds out-of-order data.
	SACK []SACKBlock
}

// PayloadLen returns the payload length in bytes, whether or not the
// bytes themselves travel with the segment.
func (s Segment) PayloadLen() int {
	if s.Data != nil {
		return len(s.Data)
	}
	return s.Blank
}

// Len returns the sequence-space length: payload bytes plus one for SYN
// and one for FIN.
func (s Segment) Len() uint64 {
	n := uint64(s.PayloadLen())
	if s.Flags&FlagSYN != 0 {
		n++
	}
	if s.Flags&FlagFIN != 0 {
		n++
	}
	return n
}

// String renders the segment for debugging.
func (s Segment) String() string {
	return fmt.Sprintf("[%s seq=%d ack=%d len=%d wnd=%d]",
		s.Flags, s.Seq, s.Ack, s.PayloadLen(), s.Wnd)
}

// Config tunes a TCP endpoint. Zero fields take the documented defaults
// via (Config).withDefaults.
type Config struct {
	// MSS is the maximum segment payload in bytes. Default 1460.
	MSS int
	// InitialCwnd is the initial congestion window in segments.
	// Default 3 (RFC 3390 era, matching the 2011 study); the
	// init-cwnd ablation sweeps {1, 3, 10}.
	InitialCwnd int
	// InitialSsthresh is the initial slow-start threshold in bytes.
	// Default 256 KiB (effectively "unlimited" for SERP-sized flows).
	InitialSsthresh int
	// RcvWindow is the advertised receive window in bytes.
	// Default 256 KiB.
	RcvWindow int
	// MinRTO and MaxRTO clamp the retransmission timeout.
	// Defaults 200 ms and 60 s.
	MinRTO time.Duration
	MaxRTO time.Duration
	// DelayedAck enables RFC 1122 delayed ACKs: acknowledge every
	// second full segment, or after DelayedAckTimeout. Default off —
	// the measurement model assumes prompt ACK clocking.
	DelayedAck        bool
	DelayedAckTimeout time.Duration
	// SACK enables selective acknowledgments (RFC 2018): receivers
	// report out-of-order blocks and senders retransmit only the
	// holes, recovering multiple losses per window in one RTT where
	// Reno needs one RTT per loss. Default off (the paper's era had
	// SACK widely deployed; the ablation quantifies its effect).
	SACK bool
	// HeaderSize is the per-segment overhead (IP+TCP headers) added to
	// the simnet packet size. Default 40.
	HeaderSize int
	// RecycleConns enables free-list recycling of completed connection
	// objects on this endpoint: a closed connection returns to the
	// endpoint once no scheduled timer event references it, and the
	// next Dial/accept reinitializes it in place instead of
	// allocating. Recycling is invisible to protocol behaviour —
	// segment timings, RNG draws and port allocation are unchanged —
	// but callers that retain *Conn pointers past OnClose must leave
	// it off: a recycled object may become a different connection.
	// Default off; the fleet campaign's churning client endpoints
	// turn it on (docs/SCALE.md).
	RecycleConns bool
}

// withDefaults fills zero fields with defaults.
func (c Config) withDefaults() Config {
	if c.MSS <= 0 {
		c.MSS = 1460
	}
	if c.InitialCwnd <= 0 {
		c.InitialCwnd = 3
	}
	if c.InitialSsthresh <= 0 {
		c.InitialSsthresh = 256 << 10
	}
	if c.RcvWindow <= 0 {
		c.RcvWindow = 256 << 10
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 200 * time.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 60 * time.Second
	}
	if c.DelayedAckTimeout <= 0 {
		c.DelayedAckTimeout = 40 * time.Millisecond
	}
	if c.HeaderSize <= 0 {
		c.HeaderSize = 40
	}
	return c
}

// Dir distinguishes send and receive tap events.
type Dir uint8

// Tap directions.
const (
	DirSend Dir = iota
	DirRecv
)

// String returns "send" or "recv".
func (d Dir) String() string {
	if d == DirSend {
		return "send"
	}
	return "recv"
}

// TapEvent reports one segment passing an endpoint, with the virtual time
// it was sent or delivered. The capture package turns these into
// tcpdump-like traces.
type TapEvent struct {
	Time    time.Duration
	Dir     Dir
	Remote  string // remote host ID
	Segment Segment
}
