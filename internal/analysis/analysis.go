// Package analysis implements the paper's measurement analysis and
// model-based inference framework:
//
//   - cross-query content analysis that identifies the static content
//     portion (Section 3),
//   - extraction of Tstatic, Tdynamic and Tdelta per session and their
//     per-node aggregation against RTT (Section 4, Figures 5 and 7),
//   - the fetch-time bounds Tdelta ≤ Tfetch ≤ Tdynamic and the
//     RTT threshold beyond which Tdelta vanishes (Section 4.1),
//   - the factoring of Tfetch into back-end processing time and FE↔BE
//     delivery delay via distance regression (Section 5, Figure 9).
package analysis

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"fesplit/internal/capture"
	"fesplit/internal/emulator"
	"fesplit/internal/obs/critpath"
	"fesplit/internal/simnet"
	"fesplit/internal/stats"
	"fesplit/internal/trace"
)

// StaticBoundary performs the cross-query content analysis: the static
// portion is the longest prefix common to responses of *different*
// queries. At least two payloads are required; the result is the LCP
// length over all of them.
func StaticBoundary(payloads [][]byte) int {
	if len(payloads) == 0 {
		return 0
	}
	lcp := len(payloads[0])
	for _, p := range payloads[1:] {
		n := lcp
		if len(p) < n {
			n = len(p)
		}
		i := 0
		for i < n && p[i] == payloads[0][i] {
			i++
		}
		lcp = i
	}
	return lcp
}

// BoundaryFromSessions derives the static/dynamic boundary from parsed
// sessions of *distinct* queries: the byte-level longest common prefix,
// snapped down to the largest packet edge observed at or below it. The
// snap reconciles content analysis with the transport layer — dynamic
// bodies may share a short templated prefix (the paper's
// "keyword-dependent dynamic menu bar" starts with fixed markup), which
// would otherwise push the byte-level LCP past the true boundary.
func BoundaryFromSessions(sessions []*trace.Session) int {
	// Sessions from snapped traces carry zero-filled payload gaps that
	// would corrupt the prefix comparison; use complete captures only.
	complete := sessions[:0:0]
	for _, s := range sessions {
		if s.PayloadComplete {
			complete = append(complete, s)
		}
	}
	sessions = complete
	if len(sessions) < 2 {
		return 0
	}
	payloads := make([][]byte, len(sessions))
	for i, s := range sessions {
		payloads[i] = s.Payload()
	}
	lcp := StaticBoundary(payloads)
	if lcp == 0 {
		return 0
	}
	snapped := 0
	for _, s := range sessions {
		if edge := s.ChunkStartAtOrBelow(lcp); edge > snapped {
			snapped = edge
		}
	}
	if snapped == 0 {
		return lcp
	}
	return snapped
}

// BoundaryFromDataset derives the static/dynamic boundary of a service
// from a dataset by comparing response payloads across distinct queries.
// It returns 0 if fewer than two distinct-query payloads exist.
func BoundaryFromDataset(ds *emulator.Dataset) int {
	seen := map[string]*trace.Session{}
	for _, r := range ds.Records {
		if r.Failed || len(r.Events) == 0 {
			continue
		}
		if _, dup := seen[r.Query.Keywords]; !dup {
			s, err := trace.ParseCaptured(r.Key, r.Events, r.Payloads)
			if err == nil {
				seen[r.Query.Keywords] = s
			}
		}
		if len(seen) >= 8 {
			break
		}
	}
	if len(seen) < 2 {
		return 0
	}
	sessions := make([]*trace.Session, 0, len(seen))
	for _, s := range seen {
		sessions = append(sessions, s)
	}
	return BoundaryFromSessions(sessions)
}

// BoundaryCrossCheck compares the content-derived boundary against the
// per-session temporal clustering (the paper validates its model by
// using both). It returns the fraction of sessions whose temporal
// boundary agrees with the content boundary, among sessions where
// clustering is conclusive, plus how many were conclusive. Agreement
// means the temporal estimate falls within one MSS of the content
// boundary. Use small-RTT sessions: clustering degrades as the clusters
// merge.
func BoundaryCrossCheck(sessions []*trace.Session, contentBoundary, mss int) (agree float64, conclusive int) {
	if mss <= 0 {
		mss = 1460
	}
	agreed := 0
	for _, s := range sessions {
		tb, ok := s.TemporalBoundary(5*time.Millisecond, 2)
		if !ok {
			continue
		}
		conclusive++
		diff := tb - contentBoundary
		if diff < 0 {
			diff = -diff
		}
		if diff <= mss {
			agreed++
		}
	}
	if conclusive == 0 {
		return 0, 0
	}
	return float64(agreed) / float64(conclusive), conclusive
}

// Params are the measured per-session parameters of Section 2.
type Params struct {
	Node     simnet.HostID
	FE       simnet.HostID
	RTT      time.Duration
	Tstatic  time.Duration
	Tdynamic time.Duration
	Tdelta   time.Duration
	Overall  time.Duration
	// Terms is the query's whitespace-separated term count, kept for
	// the complexity-correlation analysis the reviewers asked for.
	Terms int
	// Coalesced marks sessions where the last static and first dynamic
	// bytes arrived in the same packet (Tdelta clamped to 0).
	Coalesced bool
}

// FetchBounds returns the inference-framework bounds on the
// (directly unobservable) FE-BE fetch time:
// Tdelta ≤ Tfetch ≤ Tdynamic (paper equation 1).
func (p Params) FetchBounds() (lo, hi time.Duration) { return p.Tdelta, p.Tdynamic }

// ViolatesBounds reports whether a ground-truth fetch time falsifies
// the inference bound Tdelta ≤ Tfetch ≤ Tdynamic beyond the jitter
// tolerance. A zero fetch time means no ground truth was joined; that
// cannot witness a violation.
func (p Params) ViolatesBounds(trueFetch, tol time.Duration) bool {
	if trueFetch <= 0 {
		return false
	}
	return trueFetch < p.Tdelta-tol || trueFetch > p.Tdynamic+tol
}

// Measurer measures records at one content boundary, parsing each into
// one reused scratch session: an emulator.Measurer (a Runner given it
// measures each record as its connection closes), and ExtractRecord
// reads records measured or not. It is not safe for concurrent use.
type Measurer struct {
	boundary int
	s        trace.Session
	tl       critpath.Timeline // an unmeasured record's, for ExtractRecord
}

// NewMeasurer returns a measurer for the given static/dynamic boundary.
func NewMeasurer(boundary int) *Measurer { return &Measurer{boundary: boundary} }

// Measure implements emulator.Measurer.
func (m *Measurer) Measure(rr *emulator.Record, events []capture.Event) {
	rr.Parsed, rr.Skip = m.measure(rr.Key, events, &rr.Timeline)
	rr.Retrans = 0
	for _, ev := range events {
		if ev.Retransmitted() {
			rr.Retrans++
		}
	}
}

// measure parses one session's events, locates the boundary in them and
// writes the session's instants to tl. parsed is false when the events
// do not parse; err is why the session has no Section-2 parameters.
func (m *Measurer) measure(key capture.ConnKey, events []capture.Event, tl *critpath.Timeline) (parsed bool, err error) {
	if len(events) == 0 {
		return false, trace.ErrNoResponse
	}
	s := &m.s
	if err := trace.ParseInto(s, key, events, nil); err != nil {
		return false, err
	}
	err = s.Locate(m.boundary)
	*tl = critpath.Timeline{TB: s.TB, T1: s.T1, T2: s.T2, T3: s.T3, T4: s.T4, T5: s.T5, TE: s.TE, RTT: s.RTT}
	return true, err
}

// ExtractRecord is the one place a finished record's measurement is
// read: it applies the skip rules (failed query, no captured events,
// unparseable session, boundary not locatable in the stream) and builds
// the Section-2 parameters from the timeline the record was measured
// into at m's boundary, or else m parses now (valid until m's next
// call). The timeline comes back whenever the session parsed — with the
// error when only the boundary was not located, since the handshake and
// delivery instants are still good — so Fold derives all else from it.
func (m *Measurer) ExtractRecord(r *emulator.Record) (Params, *critpath.Timeline, error) {
	if r.Failed {
		return Params{}, nil, trace.ErrNoResponse
	}
	tl, parsed, err := &r.Timeline, r.Parsed, r.Skip
	if !r.Measured {
		tl = &m.tl
		parsed, err = m.measure(r.Key, r.Events, tl)
	}
	switch {
	case !parsed:
		return Params{}, nil, err
	case err != nil:
		return Params{}, tl, err
	}
	return Params{
		Node:      r.Node,
		FE:        r.FE,
		RTT:       tl.RTT,
		Tstatic:   tl.T4 - tl.T2,
		Tdynamic:  tl.T5 - tl.T2,
		Tdelta:    tl.T5 - tl.T4,
		Overall:   tl.TE - tl.TB,
		Terms:     r.Query.Terms,
		Coalesced: tl.T5 == tl.T4,
	}, tl, nil
}

// ExtractDataset measures every measurable record of a dataset
// (ExtractRecord's skip rules) at the given content boundary; it
// returns nil for a non-positive boundary.
func ExtractDataset(ds *emulator.Dataset, boundary int) []Params {
	if boundary <= 0 {
		return nil
	}
	m := NewMeasurer(boundary)
	out := make([]Params, 0, len(ds.Records))
	for i := range ds.Records {
		if p, _, err := m.ExtractRecord(&ds.Records[i]); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// NodeSummary aggregates one node's sessions: the per-node medians
// plotted in Figures 5 and 7.
type NodeSummary struct {
	Node        simnet.HostID
	RTT         time.Duration // median handshake RTT
	MedStatic   time.Duration
	MedDynamic  time.Duration
	MedDelta    time.Duration
	MedOverall  time.Duration
	OverallDist stats.BoxPlot // Figure-8 box plot of overall delay
	N           int
}

// PerNode groups measured params by node and summarizes each, sorted by
// median RTT ascending (equal medians by node name, so the order never
// depends on map iteration).
func PerNode(params []Params) []NodeSummary {
	// A stable sort by node makes each node's params one run in their
	// original order, so the node's five columns are runs of one array.
	ps := slices.Clone(params)
	slices.SortStableFunc(ps, func(a, b Params) int { return cmp.Compare(a.Node, b.Node) })
	n := len(ps)
	col := make([]float64, 5*n)
	rtt, st, dy, de, ov := col[:n], col[n:2*n], col[2*n:3*n], col[3*n:4*n], col[4*n:]
	for i, p := range ps {
		rtt[i], st[i], dy[i], de[i], ov[i] = float64(p.RTT), float64(p.Tstatic), float64(p.Tdynamic), float64(p.Tdelta), float64(p.Overall)
	}
	out := []NodeSummary{}
	for i, j := 0, 0; i < n; i = j {
		j = i + 1
		for j < n && ps[j].Node == ps[i].Node {
			j++
		}
		med := func(c []float64) time.Duration { return time.Duration(stats.Median(c[i:j])) }
		out = append(out, NodeSummary{
			Node:        ps[i].Node,
			RTT:         med(rtt),
			MedStatic:   med(st),
			MedDynamic:  med(dy),
			MedDelta:    med(de),
			MedOverall:  med(ov),
			OverallDist: stats.BoxPlotOf(ov[i:j]),
			N:           j - i,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RTT != out[j].RTT {
			return out[i].RTT < out[j].RTT
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// DeltaThreshold estimates the RTT beyond which Tdelta vanishes
// (Section 4.1; the paper's bands are rows of the root scorecard): the
// smallest node-median RTT such that every node at or above it has
// median Tdelta ≤ tol. It returns (0, false) when no node's Tdelta
// vanishes.
func DeltaThreshold(nodes []NodeSummary, tol time.Duration) (time.Duration, bool) {
	// nodes are sorted by RTT (PerNode). Walk from the top down.
	thr := time.Duration(0)
	found := false
	for i := len(nodes) - 1; i >= 0; i-- {
		if nodes[i].MedDelta > tol {
			break
		}
		thr = nodes[i].RTT
		found = true
	}
	return thr, found
}

// ValidateBounds checks the inference-framework invariant against the
// FE's ground-truth fetch times the records joined (available only in
// simulation): the median TrueFetch over records that have one must lie
// within [median Tdelta, median Tdynamic]. Returns the three medians in
// milliseconds.
func ValidateBounds(params []Params, records []emulator.Record) (lo, truth, hi float64, ok bool) {
	var del, dyn, tf []float64
	for _, r := range records {
		if r.TrueFetch > 0 {
			tf = append(tf, float64(r.TrueFetch)/float64(time.Millisecond))
		}
	}
	if len(params) == 0 || len(tf) == 0 {
		return 0, 0, 0, false
	}
	for _, p := range params {
		del = append(del, float64(p.Tdelta)/float64(time.Millisecond))
		dyn = append(dyn, float64(p.Tdynamic)/float64(time.Millisecond))
	}
	lo, truth, hi = stats.Median(del), stats.Median(tf), stats.Median(dyn)
	return lo, truth, hi, lo <= truth && truth <= hi
}
