// Package critpath attributes every sim-nanosecond of a query's
// end-to-end time to exactly one phase of the split-TCP critical path.
//
// The attribution walks a query's span tree (as assembled by
// internal/emulator) together with the paper's timeline cut points
// (trace.Session) and partitions the root span [Start, End] into an
// ordered sequence of exclusive segments: DNS resolution, TCP
// handshake, request upload, FE processing + static flush, static
// delivery, the FE↔BE fetch window split into backbone RTT propagation
// vs BE processing, dynamic delivery, and residual gaps. Segments are
// produced by telescoping a cursor across clamped cut points, so the
// conservation invariant — phases sum exactly to the span's end-to-end
// duration, in integer nanoseconds — holds by construction for any
// input, including degenerate or out-of-order timelines.
//
// The same walk derives the client-side FE↔BE fetch estimate
// (T5 − FE-arrival − RTT/2) clamped into the paper's inference bounds
// [Tdelta, Tdynamic]; internal/analysis validates both against
// Record.TrueFetch ground truth.
package critpath

import (
	"strconv"
	"time"

	"fesplit/internal/obs"
)

// Phase is one exclusive slice of the critical path. The zero-based
// values index Attribution.Phases.
type Phase uint8

const (
	// PhaseDNS is vantage-local name resolution, before the SYN.
	PhaseDNS Phase = iota
	// PhaseHandshake is the TCP three-way handshake (one client↔FE RTT).
	PhaseHandshake
	// PhaseRequest is the GET upload: request sent until it reaches the FE.
	PhaseRequest
	// PhaseFEStatic is FE-local work from request arrival until the
	// first (static) payload byte reaches the client.
	PhaseFEStatic
	// PhaseStaticDelivery is static-chunk delivery, T3→T4.
	PhaseStaticDelivery
	// PhaseBERTT is the backbone-propagation share of the FE↔BE fetch
	// window [T4, T5], bounded by the deployment's FE↔BE base RTT.
	PhaseBERTT
	// PhaseBEQueue is the cluster-queueing share of the fetch window:
	// the time the query waited for a BE replica, as reported by the
	// queue model through the be_queue_ns annotation (empty without
	// the queue model or at zero load).
	PhaseBEQueue
	// PhaseBEProc is the remainder of the fetch window: BE processing.
	PhaseBEProc
	// PhaseDynamicDelivery is dynamic-chunk delivery, T5→TE.
	PhaseDynamicDelivery
	// PhaseResidual absorbs every gap the cut points leave uncovered
	// (e.g. connection teardown after TE, clock skew between the DNS
	// child span and the SYN). Conservation forces it to exist.
	PhaseResidual

	// NumPhases is the number of exclusive phases.
	NumPhases = int(PhaseResidual) + 1
)

var phaseNames = [NumPhases]string{
	"dns", "handshake", "request", "fe-static", "static-delivery",
	"be-rtt", "be-queue", "be-proc", "dynamic-delivery", "residual",
}

// String returns the phase's stable label (used as a metric label and
// in span names, so it must never change for an existing phase).
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Timeline carries the paper's session cut points (trace.Session values
// for one parsed query): TB SYN sent, T1 GET sent, T2 GET acked, T3
// first payload byte, T4 last static byte, T5 first dynamic byte, TE
// last payload byte; RTT is the client↔FE handshake RTT.
type Timeline struct {
	TB, T1, T2, T3, T4, T5, TE time.Duration
	RTT                        time.Duration
}

// Segment is one attributed interval of the root span.
type Segment struct {
	Phase      Phase
	Start, End time.Duration
}

// Attribution is the exclusive partition of one query's root span.
type Attribution struct {
	// Phases holds the total time attributed to each phase, indexed by
	// Phase. Sum(Phases) == Total exactly, in integer nanoseconds.
	Phases [NumPhases]time.Duration
	// Segments is the ordered, contiguous partition of [root.Start,
	// root.End] the phase totals were folded from (zero-length segments
	// are omitted).
	Segments []Segment
	// Total is the root span's end-to-end duration (DNS start → done).
	Total time.Duration
	// Tdelta and Tdynamic are the paper's inference bounds for the
	// FE↔BE fetch (T5−T4 and T5−T2).
	Tdelta, Tdynamic time.Duration
	// FetchEstimate is the client-side FE↔BE fetch estimate, clamped
	// into [Tdelta, Tdynamic].
	FetchEstimate time.Duration
	// BERTT is the FE↔BE base RTT used to split the fetch window
	// (zero when the span carried no be_rtt_ns annotation).
	BERTT time.Duration
	// BEQueue is the BE-reported cluster queue wait inside the fetch
	// window (zero without a be_queue_ns annotation).
	BEQueue time.Duration
	// FEArrival is the request's arrival time at the FE. When no
	// fe-fetch server span was available it is inferred from the
	// client-side timeline (ArrivalInferred true).
	FEArrival       time.Duration
	ArrivalInferred bool
}

// Sum returns the total time across all phases.
func (a Attribution) Sum() time.Duration {
	var s time.Duration
	for _, d := range a.Phases {
		s += d
	}
	return s
}

// Conserved reports the conservation invariant: phases sum exactly to
// the root span's end-to-end duration. Attribute guarantees it by
// construction; observers count violations anyway as a self-check.
func (a Attribution) Conserved() bool { return a.Sum() == a.Total }

// FetchSpan is the span name the emulator gives the FE-side fetch
// interval; AttrBERTT is the attribute carrying the FE↔BE base RTT in
// integer nanoseconds.
const (
	FetchSpan = "fe-fetch"
	AttrBERTT = "be_rtt_ns"
	// AttrBEQueue carries the BE cluster queue wait (integer
	// nanoseconds) the queue model reported for this query.
	AttrBEQueue = "be_queue_ns"

	// attrFetchEst marks an annotated root span (idempotence guard) and
	// carries the fetch estimate for exporters.
	attrFetchEst = "cp_fetch_est_ns"
	// AnnotationTrack is the display track of the generated cp:* spans.
	AnnotationTrack = "critpath"
)

// Attribute partitions the root span's [Start, End] into exclusive
// phase segments using the session cut points. It never fails: cut
// points outside the span (or out of order) are clamped, and anything
// left uncovered lands in PhaseResidual, so Conserved() always holds.
func Attribute(root *obs.Span, tl Timeline) Attribution {
	a := Attribution{
		Total:    root.End - root.Start,
		Tdelta:   tl.T5 - tl.T4,
		Tdynamic: tl.T5 - tl.T2,
	}
	if a.Total < 0 {
		a.Total = 0
	}

	// FE-side ground-truth interval, if the emulator matched one.
	feArr := time.Duration(-1)
	if fe := root.Find(FetchSpan); fe != nil {
		feArr = fe.Start
		if v, ok := attr(fe, AttrBERTT); ok {
			if ns, err := strconv.ParseInt(v, 10, 64); err == nil && ns > 0 {
				a.BERTT = time.Duration(ns)
			}
		}
		if v, ok := attr(fe, AttrBEQueue); ok {
			if ns, err := strconv.ParseInt(v, 10, 64); err == nil && ns > 0 {
				a.BEQueue = time.Duration(ns)
			}
		}
	}
	if feArr < 0 {
		// Client-side inference: T2 is the ACK of the GET, one forward
		// trip after the request reached the FE — so the FE saw it
		// about half an RTT before T2. Clamp into [T1, T3].
		feArr = clamp(tl.T2-tl.RTT/2, tl.T1, tl.T3)
		a.ArrivalInferred = true
	}
	a.FEArrival = feArr

	// Fetch estimate: the dynamic chunk leaves the FE RTT/2 before its
	// first byte reaches the client at T5, and the FE issued the fetch
	// when the request arrived. Clamped into the paper's bounds.
	a.FetchEstimate = clamp(tl.T5-feArr-tl.RTT/2, a.Tdelta, a.Tdynamic)
	if a.FetchEstimate < 0 {
		a.FetchEstimate = 0
	}

	// Telescope a cursor across the cut points. take clamps each cut
	// into [cursor, End] so phases are non-negative and exclusive; the
	// final residual take closes the partition exactly at root.End.
	cur := root.Start
	take := func(p Phase, until time.Duration) {
		if until > root.End {
			until = root.End
		}
		if until <= cur {
			return
		}
		a.Phases[p] += until - cur
		a.Segments = append(a.Segments, Segment{Phase: p, Start: cur, End: until})
		cur = until
	}

	// DNS runs from span start to the dns-resolve child's end (the
	// span starts at IssuedAt−DNSTime); without one it is empty.
	if dns := root.Find("dns-resolve"); dns != nil {
		take(PhaseDNS, dns.End)
	}
	take(PhaseResidual, tl.TB) // think time / skew before the SYN
	take(PhaseHandshake, tl.TB+tl.RTT)
	take(PhaseResidual, tl.T1)
	take(PhaseRequest, min(feArr, tl.T3))
	take(PhaseFEStatic, tl.T3)
	take(PhaseStaticDelivery, tl.T4)
	// Fetch window [T4, T5]: propagation first (bounded by the FE↔BE
	// base RTT), then the BE-reported cluster queue wait, the rest is
	// BE processing. Without a be_rtt_ns annotation the whole window is
	// BE processing; without be_queue_ns the queue share is empty.
	if a.BERTT > 0 {
		take(PhaseBERTT, min(tl.T4+a.BERTT, tl.T5))
	}
	if a.BEQueue > 0 {
		take(PhaseBEQueue, min(cur+a.BEQueue, tl.T5))
	}
	take(PhaseBEProc, tl.T5)
	take(PhaseDynamicDelivery, tl.TE)
	take(PhaseResidual, root.End) // teardown / trailing gap

	return a
}

// Annotate appends the attribution to the span tree for export: one
// cp:<phase> child per segment on the "critpath" track, plus the fetch
// estimate as a root attribute. Calling it twice is a no-op.
func Annotate(root *obs.Span, a Attribution) {
	if root == nil {
		return
	}
	if _, ok := attr(root, attrFetchEst); ok {
		return
	}
	root.SetAttr(attrFetchEst, strconv.FormatInt(int64(a.FetchEstimate), 10))
	for _, seg := range a.Segments {
		c := root.Child("cp:"+seg.Phase.String(), seg.Start, seg.End)
		c.Track = AnnotationTrack
	}
}

func attr(s *obs.Span, key string) (string, bool) {
	for _, at := range s.Attrs {
		if at.K == key {
			return at.V, true
		}
	}
	return "", false
}

func clamp(v, lo, hi time.Duration) time.Duration {
	if hi < lo {
		hi = lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
