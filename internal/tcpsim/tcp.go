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

// Segment is the TCP header of one wire unit: 32 bytes, pointer-free,
// copied by value through the lane and the taps. Its payload bytes and
// SACK blocks travel beside it (a lane slot's side storage, a boxed
// packet's fields, a tap's arguments). Sequence numbers are absolute
// 64-bit byte offsets (no wraparound — the simulator controls both ends,
// and search-response streams are far below 2^64 bytes).
type Segment struct {
	Seq uint64 // first payload byte (or the SYN/FIN's sequence slot)
	Ack uint64 // next byte expected from the peer (valid with FlagACK)
	Wnd uint32 // advertised receive window in bytes
	// Len is the payload length in bytes, whether or not the bytes
	// travel with the segment: a content-free segment (see
	// Conn.SendBlank) occupies sequence space and wire size only.
	Len     uint32
	SrcPort uint16
	DstPort uint16
	Flags   Flags
	Retrans bool  // set on retransmissions (for traces/debugging)
	NSACK   uint8 // selective-ack blocks carried beside the segment, ≤ 3
}

// String renders the segment for debugging.
func (s Segment) String() string {
	return fmt.Sprintf("[%s seq=%d ack=%d len=%d wnd=%d]",
		s.Flags, s.Seq, s.Ack, s.Len, s.Wnd)
}

// Per-segment overhead (IP+TCP headers) added to the simnet packet
// size, the retransmission timeout's floor and ceiling, how long a
// delayed ACK waits for a second segment, and the initial slow-start
// threshold in bytes ("unlimited" for SERP-sized flows). No world
// varies them.
const (
	headerSize        = 40
	minRTO            = 200 * time.Millisecond
	maxRTO            = 60 * time.Second
	delayedAckTimeout = 40 * time.Millisecond
	initialSsthresh   = 256 << 10
)

// Config tunes a TCP endpoint. Zero fields take the documented defaults
// via (Config).withDefaults.
type Config struct {
	// MSS is the maximum segment payload in bytes. Default 1460.
	MSS int
	// InitialCwnd is the initial congestion window in segments.
	// Default 3 (RFC 3390 era, matching the 2011 study); the
	// init-cwnd ablation sweeps {1, 3, 10}.
	InitialCwnd int
	// RcvWindow is the advertised receive window in bytes.
	// Default 256 KiB.
	RcvWindow int
	// DelayedAck enables RFC 1122 delayed ACKs: acknowledge every
	// second full segment, or after delayedAckTimeout. Default off —
	// the measurement model assumes prompt ACK clocking.
	DelayedAck bool
	// SACK enables selective acknowledgments (RFC 2018): receivers
	// report out-of-order blocks and senders retransmit only the
	// holes, recovering multiple losses per window in one RTT where
	// Reno needs one RTT per loss. Default off (the paper's era had
	// SACK widely deployed; the ablation quantifies its effect).
	SACK bool
	// RecycleConns enables free-list recycling of completed connection
	// objects on this endpoint: a closed connection returns to the
	// endpoint once no scheduled timer event references it, and the
	// next Dial/accept reinitializes it in place instead of
	// allocating. Recycling is invisible to protocol behaviour —
	// segment timings, RNG draws and port allocation are unchanged —
	// but a recycled object may become a different connection, so
	// code that keeps a *Conn past OnClose must stop using it once the
	// connection has closed (httpsim's PersistentConn does) or check
	// Conn.Incarnation first (its ResponseWriter does). Default off. Every emulator client endpoint
	// and every FE endpoint turns it on; BE endpoints leave it off,
	// since their connections are the FEs' pooled persistent ones and
	// a free list there would hold nothing to reuse (docs/OPERATING.md §2).
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
	if c.RcvWindow <= 0 {
		c.RcvWindow = 256 << 10
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
// tcpdump-like traces. The segment's payload bytes and SACK blocks are
// the tap's other two arguments (see Endpoint.Tap).
type TapEvent struct {
	Time    time.Duration
	Remote  string // remote host ID
	Segment Segment
	Dir     Dir
}
