// Package critpath attributes every sim-nanosecond of a query's
// end-to-end time to exactly one phase of the split-TCP critical path.
//
// The attribution reads a query's typed cut points (a Query: its span
// of time, DNS end, FE arrival and the FE↔BE link and queue figures
// the emulator joined onto the record) together with the paper's
// timeline cut points (trace.Session) and partitions [Start, End] into
// an ordered sequence of exclusive segments: DNS resolution, TCP
// handshake, request upload, FE processing + static flush, static
// delivery, the FE↔BE fetch window split into backbone RTT propagation
// vs BE processing, dynamic delivery, and residual gaps. Segments are
// produced by telescoping a cursor across clamped cut points, so the
// conservation invariant — phases sum exactly to the query's end-to-end
// duration, in integer nanoseconds — holds by construction for any
// input, including degenerate or out-of-order timelines.
//
// The same walk derives the client-side FE↔BE fetch estimate
// (T5 − FE-arrival − RTT/2) clamped into the paper's inference bounds
// [Tdelta, Tdynamic]; internal/analysis validates both against
// Record.TrueFetch ground truth.
package critpath

import (
	"slices"
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
	// queue model (empty without the queue model or at zero load).
	PhaseBEQueue
	// PhaseBEProc is the remainder of the fetch window: BE processing.
	PhaseBEProc
	// PhaseDynamicDelivery is dynamic-chunk delivery, T5→TE.
	PhaseDynamicDelivery
	// PhaseResidual absorbs every gap the cut points leave uncovered
	// (e.g. connection teardown after TE, clock skew between DNS end
	// and the SYN). Conservation forces it to exist.
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

// Query is one query's own cut points, read off its record: Start is
// DNS start (IssuedAt − DNSTime), End its completion. DNSEnd is where
// resolution ended (at or before Start: no DNS phase). FEArrival is the
// request's arrival at the FE as the FE reported it, or negative to
// infer it from the timeline. BERTT (the FE↔BE base RTT) and BEQueue
// (the BE cluster queue wait) split the fetch window; zero leaves the
// share empty.
type Query struct {
	Start, End, DNSEnd time.Duration
	FEArrival          time.Duration
	BERTT, BEQueue     time.Duration
}

// Segment is one attributed interval of the query.
type Segment struct {
	Phase      Phase
	Start, End time.Duration
}

// maxSegments bounds the walk: Attribute takes at most this many steps.
const maxSegments = 12

// Attribution is the exclusive partition of one query's [Start, End].
type Attribution struct {
	// Phases holds the total time attributed to each phase, indexed by
	// Phase. Sum(Phases) == Total exactly, in integer nanoseconds.
	Phases [NumPhases]time.Duration
	// segs[:nsegs] is the ordered, contiguous partition the phase totals
	// were folded from (see Segments).
	segs  [maxSegments]Segment
	nsegs int
	// Total is the query's end-to-end duration (DNS start → done).
	Total time.Duration
	// Tdelta and Tdynamic are the paper's inference bounds for the
	// FE↔BE fetch (T5−T4 and T5−T2).
	Tdelta, Tdynamic time.Duration
	// FetchEstimate is the client-side FE↔BE fetch estimate, clamped
	// into [Tdelta, Tdynamic].
	FetchEstimate time.Duration
	// BERTT is the FE↔BE base RTT used to split the fetch window
	// (zero when the query carried none).
	BERTT time.Duration
	// BEQueue is the BE-reported cluster queue wait inside the fetch
	// window (zero when the query carried none).
	BEQueue time.Duration
}

// Segments returns the ordered, contiguous partition of [Start, End]
// (zero-length segments are omitted).
func (a *Attribution) Segments() []Segment { return a.segs[:a.nsegs] }

// Sum returns the total time across all phases.
func (a Attribution) Sum() time.Duration {
	var s time.Duration
	for _, d := range a.Phases {
		s += d
	}
	return s
}

// Conserved reports the conservation invariant: phases sum exactly to
// the query's end-to-end duration. Attribute guarantees it by
// construction; observers count violations anyway as a self-check.
func (a Attribution) Conserved() bool { return a.Sum() == a.Total }

const (
	// attrFetchEst carries the fetch estimate on an annotated root span
	// for exporters.
	attrFetchEst = "cp_fetch_est_ns"
	// AnnotationTrack is the display track of the generated cp:* spans.
	AnnotationTrack = "critpath"
)

// Attribute partitions the query's [Start, End] into exclusive phase
// segments using the session cut points. It never fails: cut points
// outside the query (or out of order) are clamped, and anything left
// uncovered lands in PhaseResidual, so Conserved() always holds.
func Attribute(q Query, tl Timeline) Attribution {
	a := Attribution{
		Total:    q.End - q.Start,
		Tdelta:   tl.T5 - tl.T4,
		Tdynamic: tl.T5 - tl.T2,
		BERTT:    max(q.BERTT, 0),
		BEQueue:  max(q.BEQueue, 0),
	}
	if a.Total < 0 {
		a.Total = 0
	}

	feArr := q.FEArrival
	if feArr < 0 {
		// Client-side inference: T2 is the ACK of the GET, one forward
		// trip after the request reached the FE — so the FE saw it
		// about half an RTT before T2. Clamp into [T1, T3].
		feArr = clamp(tl.T2-tl.RTT/2, tl.T1, tl.T3)
	}

	// Fetch estimate: the dynamic chunk leaves the FE RTT/2 before its
	// first byte reaches the client at T5, and the FE issued the fetch
	// when the request arrived. Clamped into the paper's bounds.
	a.FetchEstimate = clamp(tl.T5-feArr-tl.RTT/2, a.Tdelta, a.Tdynamic)
	if a.FetchEstimate < 0 {
		a.FetchEstimate = 0
	}

	// Telescope a cursor across the cut points. take clamps each cut
	// into [cursor, End] so phases are non-negative and exclusive; the
	// final residual take closes the partition exactly at End.
	cur := q.Start
	take := func(p Phase, until time.Duration) {
		if until > q.End {
			until = q.End
		}
		if until <= cur {
			return
		}
		a.Phases[p] += until - cur
		a.segs[a.nsegs] = Segment{Phase: p, Start: cur, End: until}
		a.nsegs++
		cur = until
	}

	take(PhaseDNS, q.DNSEnd)   // empty without a resolution
	take(PhaseResidual, tl.TB) // think time / skew before the SYN
	take(PhaseHandshake, tl.TB+tl.RTT)
	take(PhaseResidual, tl.T1)
	take(PhaseRequest, min(feArr, tl.T3))
	take(PhaseFEStatic, tl.T3)
	take(PhaseStaticDelivery, tl.T4)
	// Fetch window [T4, T5]: propagation first (bounded by the FE↔BE
	// base RTT), then the BE-reported cluster queue wait, the rest is
	// BE processing. Without a BE RTT the whole window is BE
	// processing; without a queue wait the queue share is empty.
	if a.BERTT > 0 {
		take(PhaseBERTT, min(tl.T4+a.BERTT, tl.T5))
	}
	if a.BEQueue > 0 {
		take(PhaseBEQueue, min(cur+a.BEQueue, tl.T5))
	}
	take(PhaseBEProc, tl.T5)
	take(PhaseDynamicDelivery, tl.TE)
	take(PhaseResidual, q.End) // teardown / trailing gap

	return a
}

// Annotate appends the attribution to a query's span tree for export:
// one cp:<phase> child per segment on the "critpath" track, plus the
// fetch estimate as a root attribute.
func Annotate(root *obs.Span, a Attribution) {
	root.SetAttr(attrFetchEst, strconv.FormatInt(int64(a.FetchEstimate), 10))
	root.Children = slices.Grow(root.Children, a.nsegs)
	for _, seg := range a.Segments() {
		c := root.Child("cp:"+seg.Phase.String(), seg.Start, seg.End)
		c.Track = AnnotationTrack
	}
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
