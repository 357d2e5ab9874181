package analysis

import (
	"strconv"
	"time"

	"fesplit/internal/emulator"
	"fesplit/internal/obs"
	"fesplit/internal/obs/critpath"
	"fesplit/internal/trace"
)

// Fold is the one measuring pass over a finished record. Everything
// derived from a record's packet trace comes from the single parse of
// ExtractRecord, in this fixed order: the phase sketches, the Section-2
// parameters, the causal span tree, the critical-path attribution
// annotated onto that tree, and only then the tail offer — so retained
// exemplars always carry the cp:* waterfall. The tree lives in the
// fold's own arena and is recycled after every record; the sampler
// clones the few it keeps.
//
// A Fold belongs to one batch: it is not safe for concurrent use.
type Fold struct {
	boundary int
	tol      time.Duration
	service  string
	// The three phase families, nil without a registry.
	phase, perFE, perNode *obs.SketchVec
	crit                  *CritObserver // nil without a registry
	tail                  *obs.TailSampler
	arena                 obs.SpanArena

	// Attributed counts the records the critical-path pass covered;
	// Violations those whose FE ground truth falsified
	// Tdelta ≤ Tfetch ≤ Tdynamic by more than the tolerance.
	Attributed, Violations int
}

// NewFold builds a fold measuring against the given static/dynamic
// boundary. reg (nil → no sketches, no critical-path pass) receives the
// phase families labeled by service and the critpath families labeled by
// label — the queueing scenarios tell their critical paths apart by
// scenario while sharing one service. ts (nil → nothing offered)
// receives every located session's span tree with its Tdynamic, flagged
// when the FE's ground-truth fetch time falls outside
// Tdelta ≤ Tfetch ≤ Tdynamic (paper equation 1) by more than tol. tol
// absorbs access-link jitter: the client-side bounds come from two
// observed packets, each shifted by up to one jitter draw, so pass about
// twice the fleet's access jitter.
func NewFold(reg *obs.Registry, service, label string, boundary int, ts *obs.TailSampler, tol time.Duration) *Fold {
	f := &Fold{boundary: boundary, tol: tol, service: service, tail: ts}
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
	p, s, err := ExtractRecord(rr, f.boundary)
	f.observePhases(rr, s)
	if err != nil {
		return Params{}, false
	}
	violation := p.ViolatesBounds(rr.TrueFetch, f.tol)
	if violation {
		f.Violations++
	}
	if f.crit == nil && f.tail == nil {
		return p, true
	}
	root := f.span(rr, s)
	if f.crit != nil {
		f.crit.Observe(attribute(root, s), rr.TrueFetch)
		f.Attributed++
	}
	f.tail.OfferTransient(p.Tdynamic.Seconds(), violation, root)
	f.arena.Reset()
	return p, true
}

// ArenaCap returns the span arena's node capacity — bounded by the
// largest single tree, whatever the campaign length.
func (f *Fold) ArenaCap() int { return f.arena.Cap() }

// observePhases feeds the dimensional quantile sketches: every
// completed record's overall delay (by service, FE and vantage), its DNS
// cost when it paid one, and the client-side phases of s — the parsed
// session, nil when the capture did not parse.
func (f *Fold) observePhases(rr *emulator.Record, s *trace.Session) {
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

// span builds the paper's Figure-2 causal phases of one query as a span
// tree in the fold's arena: client-side phases from the parsed session,
// plus the FE's ground truth the emulator joined onto the record (static
// flush, FE↔BE fetch; absent when the join failed) on a second track.
func (f *Fold) span(rr *emulator.Record, s *trace.Session) *obs.Span {
	a := &f.arena
	start := rr.IssuedAt - rr.DNSTime
	root := a.NewSpan("query", "client", obs.ConnKey(rr.Key), start, rr.DoneAt)
	root.SetAttr("node", string(rr.Node))
	root.SetAttr("fe", string(rr.FE))
	root.SetAttr("keywords", rr.Query.Keywords)
	if rr.DNSTime > 0 {
		a.Child(root, "dns-resolve", start, rr.IssuedAt)
	}
	a.Child(root, "tcp-handshake", s.TB, s.TB+s.RTT)
	a.Child(root, "get-request", s.T1, s.T3)
	a.Child(root, "delivery", s.T3, s.TE)
	fr := rr.Fetch
	if fr.StaticAt > 0 {
		c := a.Child(root, "fe-static-flush", fr.Arrived, fr.StaticAt)
		c.Track = "frontend"
	}
	if fr.FetchDone > 0 {
		c := a.Child(root, critpath.FetchSpan, fr.Arrived, fr.FetchDone)
		c.Track = "frontend"
		if rr.BE != "" {
			c.SetAttr("be", string(rr.BE))
			c.SetAttr(critpath.AttrBERTT, strconv.FormatInt(int64(rr.BERTT), 10))
		}
		if fr.QueueWait > 0 {
			// BE-reported cluster queueing inside the fetch window,
			// powering the be-queue critical-path phase.
			c.SetAttr(critpath.AttrBEQueue, strconv.FormatInt(int64(fr.QueueWait), 10))
		}
	}
	return root
}

// attribute computes the exclusive critical-path attribution of a span
// tree from its located session and annotates it onto the tree (cp:*
// child spans + fetch-estimate attr), so exporters and tail exemplars
// carry the waterfall.
func attribute(root *obs.Span, s *trace.Session) critpath.Attribution {
	a := critpath.Attribute(root, critpath.Timeline{
		TB: s.TB, T1: s.T1, T2: s.T2, T3: s.T3,
		T4: s.T4, T5: s.T5, TE: s.TE, RTT: s.RTT,
	})
	critpath.Annotate(root, a)
	return a
}
