// Package core mechanizes the paper's "simple abstract model" (Section
// 2): given the directly-measurable path and service parameters, it
// predicts the full packet-event timeline of a split-TCP search query —
// tb, t1..t5, te — and from it Tstatic, Tdynamic and Tdelta.
//
// The predictor is the analytic counterpart of the packet-level
// simulator: tests drive both with identical deterministic inputs and
// require the timelines to agree, which is the "correctness of the
// model is validated" step of the paper. It also carries the inference
// equations:
//
//	Tdelta ≤ Tfetch ≤ Tdynamic          (1)
//	Tfetch = Tproc + C·RTTbe            (2)
package core

import (
	"container/heap"
	"fmt"
	"time"
)

// Inputs are the model's independent variables.
type Inputs struct {
	// RTT is the client↔FE round-trip time.
	RTT time.Duration
	// FEDelay is the FE's request-processing delay before it flushes
	// the cached static portion.
	FEDelay time.Duration
	// Fetch is the FE↔BE fetch time: from the FE receiving the GET to
	// the FE holding the complete dynamic portion.
	Fetch time.Duration
	// StaticBytes and DynamicBytes are the two content portion sizes
	// (the static portion includes the HTTP response header).
	StaticBytes  int
	DynamicBytes int
	// MSS and InitCwnd describe the FE→client TCP sender. Slow start
	// grows the window by one segment per ACK; the model assumes no
	// loss, matching the paper's PlanetLab observations.
	MSS      int
	InitCwnd int
}

func (in Inputs) withDefaults() Inputs {
	if in.MSS <= 0 {
		in.MSS = 1460
	}
	if in.InitCwnd <= 0 {
		in.InitCwnd = 3
	}
	return in
}

// Prediction is the modeled Figure-2 timeline, with tb = 0.
type Prediction struct {
	TB time.Duration // SYN sent
	T1 time.Duration // GET sent
	T2 time.Duration // ACK of GET received
	T3 time.Duration // first static packet received
	T4 time.Duration // last static packet received
	T5 time.Duration // first dynamic packet received
	TE time.Duration // last packet received

	// Coalesced reports whether the last static byte and first dynamic
	// byte shared one packet (the paper's large-RTT regime).
	Coalesced bool
}

// Tdynamic is t5 − t2.
func (p Prediction) Tdynamic() time.Duration { return p.T5 - p.T2 }

// Tdelta is t5 − t4.
func (p Prediction) Tdelta() time.Duration { return p.T5 - p.T4 }

// slotHeap holds times at which a congestion-window slot becomes free.
type slotHeap []time.Duration

func (h slotHeap) Len() int            { return len(h) }
func (h slotHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h slotHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x interface{}) { *h = append(*h, x.(time.Duration)) }
func (h *slotHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// Predict computes the timeline. The FE→client transfer is modeled at
// segment granularity with ACK-clocked slow start: each in-flight
// segment occupies a window slot; its ACK (one RTT after the send)
// frees the slot and adds one more (exponential growth), exactly the
// no-loss behaviour of the transport simulator.
func Predict(in Inputs) (Prediction, error) {
	in = in.withDefaults()
	if in.StaticBytes <= 0 || in.DynamicBytes <= 0 {
		return Prediction{}, fmt.Errorf("core: content sizes must be positive: %+v", in)
	}
	p := Prediction{
		TB: 0,
		T1: in.RTT,     // GET goes out when the SYN|ACK arrives
		T2: 2 * in.RTT, // its ACK returns one RTT later
	}
	getAtFE := in.RTT + in.RTT/2
	staticReady := getAtFE + in.FEDelay
	dynamicReady := getAtFE + in.Fetch

	// Window slots: the connection starts with InitCwnd slots, all
	// free immediately.
	slots := make(slotHeap, in.InitCwnd)
	heap.Init(&slots)

	type sendRec struct {
		at         time.Duration
		start, end int // byte range of the combined stream
	}
	var sends []sendRec
	total := in.StaticBytes + in.DynamicBytes
	sent := 0
	for sent < total {
		// Earliest free window slot.
		slot := heap.Pop(&slots).(time.Duration)
		// Data availability for the next unsent byte.
		avail := staticReady
		if sent >= in.StaticBytes {
			avail = dynamicReady
		}
		at := slot
		if avail > at {
			at = avail
		}
		// Segment size: up to MSS of *currently available* bytes. If
		// the dynamic portion is not yet ready, the segment cannot
		// extend past the static end (the FE flushes what it has).
		limit := total
		if at < dynamicReady {
			limit = in.StaticBytes
		}
		n := in.MSS
		if sent+n > limit {
			n = limit - sent
		}
		sends = append(sends, sendRec{at: at, start: sent, end: sent + n})
		sent += n
		// The segment's ACK frees this slot and grows the window.
		heap.Push(&slots, at+in.RTT)
		heap.Push(&slots, at+in.RTT)
	}

	half := in.RTT / 2
	for _, s := range sends {
		arr := s.at + half
		if s.start == 0 {
			p.T3 = arr
		}
		if s.start < in.StaticBytes && s.end >= in.StaticBytes {
			p.T4 = arr // segment carrying the last static byte
			if s.end > in.StaticBytes {
				p.T5 = arr // same packet also carries dynamic bytes
				p.Coalesced = true
			}
		}
		if !p.Coalesced && p.T5 == 0 && s.start == in.StaticBytes {
			p.T5 = arr
		}
		if arr > p.TE {
			p.TE = arr
		}
	}
	return p, nil
}

// DeltaThresholdRTT predicts the RTT at which Tdelta reaches zero:
// the static delivery (one extra window round beyond the first) catches
// up with the fetch when RTT ≈ Tfetch − FEDelay. Beyond it, clusters
// coalesce.
func DeltaThresholdRTT(fetch, feDelay time.Duration) time.Duration {
	thr := fetch - feDelay
	if thr < 0 {
		thr = 0
	}
	return thr
}
