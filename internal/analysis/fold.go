package analysis

import (
	"strconv"
	"time"

	"fesplit/internal/emulator"
	"fesplit/internal/obs"
	"fesplit/internal/obs/critpath"
)

// Fold is the one measuring pass over a finished record. Everything
// derived from a record's packet trace comes from the one timeline
// ExtractRecord reads, in this fixed order: the phase sketches, the
// Section-2 parameters, the critical-path attribution (read off the
// record's typed fields), and only then the tail offer. The sampler
// decides first; the causal span tree, with the cp:* waterfall
// annotated onto it, is built on the heap only for an offer it keeps.
//
// A Fold is also the Measurer of its boundary, so the records it folds
// can be measured as their connections close. It belongs to one batch:
// it is not safe for concurrent use.
type Fold struct {
	*Measurer
	tol     time.Duration
	service string
	// The three phase families, nil without a registry.
	phase, perFE, perNode *obs.SketchVec
	crit                  *CritObserver // nil without a registry
	tail                  *obs.TailSampler

	// Violations counts the records whose FE ground truth falsified
	// Tdelta ≤ Tfetch ≤ Tdynamic by more than the tolerance.
	Violations int
}

// NewFold builds a fold measuring against the given static/dynamic
// boundary. reg (nil → no sketches, no critical-path pass) receives the
// phase families labeled by service and the critpath families labeled by
// label — the queueing scenarios tell their critical paths apart by
// scenario while sharing one service. ts (nil → nothing offered)
// receives every located session's Tdynamic and span-tree builder, flagged
// when the FE's ground-truth fetch time falls outside
// Tdelta ≤ Tfetch ≤ Tdynamic (paper equation 1) by more than tol. tol
// absorbs access-link jitter: the client-side bounds come from two
// observed packets, each shifted by up to one jitter draw, so pass about
// twice the fleet's access jitter.
func NewFold(reg *obs.Registry, service, label string, boundary int, ts *obs.TailSampler, tol time.Duration) *Fold {
	f := &Fold{Measurer: NewMeasurer(boundary), tol: tol, service: service, tail: ts}
	if reg != nil {
		f.phase = reg.SketchVec("query_phase_seconds",
			"per-phase query durations (client-observed)",
			obs.DefaultSketchAlpha, "service", "phase")
		f.perFE = reg.SketchVec("fe_overall_seconds",
			"overall query delay by serving front-end",
			obs.DefaultSketchAlpha, "service", "fe")
		// Fleet nodes are the one label dimension that scales with
		// deployment size, hence the cardinality cap.
		f.perNode = reg.SketchVec("vantage_overall_seconds",
			"overall query delay by vantage node",
			obs.DefaultSketchAlpha, "service", "vantage").Bounded(obs.DefaultCardinality)
		f.crit = NewCritObserver(reg, label)
	}
	return f
}

// Consume measures one record and returns its Section-2 parameters; ok
// is false for a record ExtractRecord cannot measure. The record is not
// retained.
func (f *Fold) Consume(rr *emulator.Record) (p Params, ok bool) {
	p, tl, err := f.ExtractRecord(rr)
	f.observePhases(rr, tl)
	if err != nil {
		return Params{}, false
	}
	violation := p.ViolatesBounds(rr.TrueFetch, f.tol)
	if violation {
		f.Violations++
	}
	var a critpath.Attribution
	if f.crit != nil {
		a = critpath.Attribute(query(rr), *tl)
		f.crit.Observe(a, rr.TrueFetch)
	}
	f.tail.Offer(p.Tdynamic.Seconds(), violation, func() *obs.Span {
		root := span(rr, tl)
		if f.crit != nil {
			critpath.Annotate(root, a)
		}
		return root
	})
	return p, true
}

// observePhases feeds the dimensional quantile sketches: every
// completed record's overall delay (by service, FE and vantage), its DNS
// cost when it paid one, and the client-side phases of s — the session's
// timeline, nil when the capture did not parse.
func (f *Fold) observePhases(rr *emulator.Record, s *critpath.Timeline) {
	if f.phase == nil || rr.Failed {
		return
	}
	svc, overall := f.service, rr.OverallDelay().Seconds()
	f.phase.With(svc, "overall").Observe(overall)
	f.perFE.With(svc, string(rr.FE)).Observe(overall)
	f.perNode.With(svc, string(rr.Node)).Observe(overall)
	if rr.DNSTime > 0 {
		f.phase.With(svc, "dns").Observe(rr.DNSTime.Seconds())
	}
	if s != nil {
		f.phase.With(svc, "handshake").Observe(s.RTT.Seconds())
		f.phase.With(svc, "get").Observe((s.T3 - s.T1).Seconds())
		f.phase.With(svc, "delivery").Observe((s.TE - s.T3).Seconds())
	}
}

// The FE-side fetch span and its attributes, as exported.
const (
	fetchSpan   = "fe-fetch"
	attrBERTT   = "be_rtt_ns"
	attrBEQueue = "be_queue_ns"
)

// query reads the critical-path cut points off the record, under the
// same conditions span draws them: the DNS end only when resolution
// cost time, the FE side only when the FE's fetch ended (otherwise the
// arrival is inferred), the BE RTT only when the BE is known.
func query(rr *emulator.Record) critpath.Query {
	q := critpath.Query{Start: rr.IssuedAt - rr.DNSTime, End: rr.DoneAt, FEArrival: -1}
	if rr.DNSTime > 0 {
		q.DNSEnd = rr.IssuedAt
	}
	if fr := rr.Fetch; fr.FetchDone > 0 {
		q.FEArrival, q.BEQueue = fr.Arrived, fr.QueueWait
		if fr.BE != "" {
			q.BERTT = rr.BERTT
		}
	}
	return q
}

// span builds the paper's Figure-2 causal phases of one query as a span
// tree: client-side phases from the session's timeline, plus the FE's
// ground truth the emulator joined onto the record (static flush,
// FE↔BE fetch; absent when the join failed) on a second track.
func span(rr *emulator.Record, s *critpath.Timeline) *obs.Span {
	start := rr.IssuedAt - rr.DNSTime
	// Sized for the whole tree below (Annotate adds one attribute and
	// grows the children once for its segments), so no slice regrows.
	root := &obs.Span{Name: "query", Track: "client", Key: obs.ConnKey(rr.Key), Start: start, End: rr.DoneAt,
		Attrs: make([]obs.Attr, 0, 4), Children: make([]*obs.Span, 0, 6)}
	root.SetAttr("node", string(rr.Node))
	root.SetAttr("fe", string(rr.FE))
	root.SetAttr("keywords", rr.Query.Keywords)
	if rr.DNSTime > 0 {
		root.Child("dns-resolve", start, rr.IssuedAt)
	}
	root.Child("tcp-handshake", s.TB, s.TB+s.RTT)
	root.Child("get-request", s.T1, s.T3)
	root.Child("delivery", s.T3, s.TE)
	fr := rr.Fetch
	if fr.StaticAt > 0 {
		c := root.Child("fe-static-flush", fr.Arrived, fr.StaticAt)
		c.Track = "frontend"
	}
	if fr.FetchDone > 0 {
		c := root.Child(fetchSpan, fr.Arrived, fr.FetchDone)
		c.Track = "frontend"
		if fr.BE != "" {
			c.SetAttr("be", string(fr.BE))
			c.SetAttr(attrBERTT, strconv.FormatInt(int64(rr.BERTT), 10))
		}
		if fr.QueueWait > 0 {
			// BE-reported cluster queueing inside the fetch window,
			// powering the be-queue critical-path phase.
			c.SetAttr(attrBEQueue, strconv.FormatInt(int64(fr.QueueWait), 10))
		}
	}
	return root
}
