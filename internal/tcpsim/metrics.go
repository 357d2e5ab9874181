package tcpsim

import "fesplit/internal/obs"

// StackMetrics bundles a TCP stack's registry instruments. One bundle
// is typically shared by every endpoint of a simulation so the families
// aggregate fleet-wide; per-connection detail stays on Conn.Metrics().
// A nil *StackMetrics disables instrumentation at the cost of one
// pointer compare per event.
type StackMetrics struct {
	ConnsOpened *obs.Counter
	SegsSent    *obs.Counter
	SegsRecv    *obs.Counter
	Retransmits *obs.Counter
	FastRetrans *obs.Counter
	RTOs        *obs.Counter
	DupAcks     *obs.Counter
}

// NewStackMetrics registers the tcp_* families on reg and returns the
// bundle (nil registry → nil bundle).
func NewStackMetrics(reg *obs.Registry) *StackMetrics {
	if reg == nil {
		return nil
	}
	return &StackMetrics{
		ConnsOpened: reg.Counter("tcp_conns_opened_total", "connections created (dialed or accepted)"),
		SegsSent:    reg.Counter("tcp_segments_sent_total", "segments transmitted (including retransmissions)"),
		SegsRecv:    reg.Counter("tcp_segments_received_total", "segments delivered to endpoints"),
		Retransmits: reg.Counter("tcp_retransmits_total", "segments retransmitted for any reason"),
		FastRetrans: reg.Counter("tcp_fast_retransmits_total", "fast retransmits (triple duplicate ACK)"),
		RTOs:        reg.Counter("tcp_rtos_total", "retransmission-timeout expiries"),
		DupAcks:     reg.Counter("tcp_dup_acks_total", "duplicate ACKs received by senders"),
	}
}
