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
	"sort"
	"time"

	"fesplit/internal/emulator"
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
			s, err := trace.Parse(r.Key, r.Events)
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

// ExtractRecord is the one place a finished record is parsed: it applies
// the skip rules (failed query, no captured events, unparseable
// session, boundary not locatable in the stream), parses the session
// once and builds the Section-2 parameters. The session comes back
// whenever it parsed — with the error when only the boundary could not
// be located, since the handshake and delivery instants are still good
// — so Fold derives everything else from the same parse; it holds the
// reassembled payload, so drop it with the record.
func ExtractRecord(r *emulator.Record, boundary int) (Params, *trace.Session, error) {
	if r.Failed || len(r.Events) == 0 {
		return Params{}, nil, trace.ErrNoResponse
	}
	s, err := trace.Parse(r.Key, r.Events)
	if err != nil {
		return Params{}, nil, err
	}
	if err := s.Locate(boundary); err != nil {
		return Params{}, s, err
	}
	return Params{
		Node:      r.Node,
		FE:        r.FE,
		RTT:       s.RTT,
		Tstatic:   s.Tstatic(),
		Tdynamic:  s.Tdynamic(),
		Tdelta:    s.Tdelta(),
		Overall:   s.Overall(),
		Terms:     r.Query.Terms,
		Coalesced: s.Tdelta() == 0,
	}, s, nil
}

// ExtractDataset measures every measurable record of a dataset
// (ExtractRecord's skip rules). If boundary ≤ 0 it is derived with
// BoundaryFromDataset first.
func ExtractDataset(ds *emulator.Dataset, boundary int) []Params {
	if boundary <= 0 {
		boundary = BoundaryFromDataset(ds)
		if boundary <= 0 {
			return nil
		}
	}
	out := make([]Params, 0, len(ds.Records))
	for i := range ds.Records {
		if p, _, err := ExtractRecord(&ds.Records[i], boundary); err == nil {
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
	group := map[simnet.HostID][]Params{}
	for _, p := range params {
		group[p.Node] = append(group[p.Node], p)
	}
	out := make([]NodeSummary, 0, len(group))
	for node, ps := range group {
		var rtt, st, dy, de, ov []float64
		for _, p := range ps {
			rtt = append(rtt, float64(p.RTT))
			st = append(st, float64(p.Tstatic))
			dy = append(dy, float64(p.Tdynamic))
			de = append(de, float64(p.Tdelta))
			ov = append(ov, float64(p.Overall))
		}
		out = append(out, NodeSummary{
			Node:        node,
			RTT:         time.Duration(stats.Median(rtt)),
			MedStatic:   time.Duration(stats.Median(st)),
			MedDynamic:  time.Duration(stats.Median(dy)),
			MedDelta:    time.Duration(stats.Median(de)),
			MedOverall:  time.Duration(stats.Median(ov)),
			OverallDist: stats.BoxPlotOf(ov),
			N:           len(ps),
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
// (Section 4.1: ~50–100 ms for Google, ~100–200 ms for Bing): the
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

// RTTCDF builds the Figure-6 CDF of node RTTs to their default FE, in
// milliseconds.
func RTTCDF(nodes []NodeSummary) *stats.ECDF {
	xs := make([]float64, len(nodes))
	for i, n := range nodes {
		xs[i] = float64(n.RTT) / float64(time.Millisecond)
	}
	return stats.NewECDF(xs)
}

// ValidateBounds checks the inference-framework invariant against
// ground-truth fetch times recorded at the FE (available only in
// simulation): the median true fetch must lie within
// [median Tdelta, median Tdynamic]. Returns the three medians in
// milliseconds.
func ValidateBounds(params []Params, trueFetch []time.Duration) (lo, truth, hi float64, ok bool) {
	if len(params) == 0 || len(trueFetch) == 0 {
		return 0, 0, 0, false
	}
	var del, dyn, tf []float64
	for _, p := range params {
		del = append(del, float64(p.Tdelta)/float64(time.Millisecond))
		dyn = append(dyn, float64(p.Tdynamic)/float64(time.Millisecond))
	}
	for _, f := range trueFetch {
		tf = append(tf, float64(f)/float64(time.Millisecond))
	}
	lo, truth, hi = stats.Median(del), stats.Median(tf), stats.Median(dyn)
	return lo, truth, hi, lo <= truth && truth <= hi
}
