package analysis

import (
	"sort"
	"time"

	"fesplit/internal/simnet"
	"fesplit/internal/stats"
)

// DistancePoint is one Figure-9 sample: a front-end server's distance to
// its back-end data center and the representative Tdynamic (≈ Tfetch)
// observed through it from nearby (small-RTT) clients.
type DistancePoint struct {
	FE         simnet.HostID
	Miles      float64
	TdynamicMS float64
}

// FactorResult is the Section-5 decomposition of the FE-BE fetch time.
type FactorResult struct {
	Fit stats.LinFit
	// ProcTimeMS is the regression intercept: the estimated back-end
	// query processing time T_proc.
	ProcTimeMS float64
	// SlopeMSPerMile is the network-delay contribution of FE↔BE
	// distance, similar across services in the paper.
	SlopeMSPerMile float64
	Points         []DistancePoint
	// SlopeCI and ProcCI are 95% percentile-bootstrap confidence
	// intervals, populated by FactorFetchCI.
	SlopeCI stats.BootstrapCI
	ProcCI  stats.BootstrapCI
}

// FactorFetch regresses Tdynamic against FE↔BE distance, separating the
// fetch time into processing (intercept) and delivery (slope) — the
// heuristics of Section 5. Tdynamic approximates Tfetch only for
// small-RTT clients, so callers must build points from clients near each
// FE (see Fig9Points).
func FactorFetch(points []DistancePoint) FactorResult {
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		xs[i], ys[i] = p.Miles, p.TdynamicMS
	}
	fit := stats.LinReg(xs, ys)
	return FactorResult{
		Fit:            fit,
		ProcTimeMS:     fit.Intercept,
		SlopeMSPerMile: fit.Slope,
		Points:         points,
	}
}

// FactorFetchCI is FactorFetch plus 95% bootstrap confidence intervals
// on both regression coefficients, deterministic for a given seed.
func FactorFetchCI(points []DistancePoint, resamples int, seed int64) FactorResult {
	res := FactorFetch(points)
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		xs[i], ys[i] = p.Miles, p.TdynamicMS
	}
	res.SlopeCI, res.ProcCI = stats.BootstrapLinReg(xs, ys, resamples, 0.95, stats.NewRand(seed))
	return res
}

// Fig9Points assembles regression samples from measured params: for
// every FE, the median Tdynamic across sessions whose client RTT is
// below rttCap (the paper's "for smaller values of RTT, Tdynamic can be
// considered as an approximation for Tfetch"). feMiles maps each FE to
// its distance from its back-end data center.
func Fig9Points(params []Params, feMiles map[simnet.HostID]float64, rttCap time.Duration) []DistancePoint {
	byFE := map[simnet.HostID][]float64{}
	for _, p := range params {
		if p.RTT > rttCap {
			continue
		}
		byFE[p.FE] = append(byFE[p.FE], float64(p.Tdynamic)/float64(time.Millisecond))
	}
	out := make([]DistancePoint, 0, len(byFE))
	for fe, ys := range byFE {
		miles, ok := feMiles[fe]
		if !ok || len(ys) == 0 {
			continue
		}
		out = append(out, DistancePoint{FE: fe, Miles: miles, TdynamicMS: stats.Median(ys)})
	}
	// Canonical order: map iteration above is randomized, and point order
	// feeds both the rendered scatter and the bootstrap resampler.
	sort.Slice(out, func(i, j int) bool { return out[i].FE < out[j].FE })
	return out
}

// ProcEstimate is a per-FE back-end processing-time estimate obtained
// by subtracting a distance-derived RTT_be from the FE's small-RTT
// Tdynamic — the reviewers' "virtual coordinate system" suggestion:
// estimate the FE↔BE round trip from geography, take it (and the
// constant C) out of Tfetch, and what remains is T_proc.
type ProcEstimate struct {
	FE      simnet.HostID
	TprocMS float64
}

// EstimateProcPerFE computes per-FE processing-time estimates:
// Tproc ≈ Tdynamic − C·RTTbe(distance). msPerMileRTT converts FE↔BE
// distance to round-trip milliseconds (e.g. from a delay model or a
// virtual coordinate system); c is the window constant of equation (2).
// Consistency across FEs (low spread) validates the decomposition: all
// FEs of one service share the same back end, so their Tproc estimates
// should agree.
func EstimateProcPerFE(points []DistancePoint, msPerMileRTT, c float64) []ProcEstimate {
	out := make([]ProcEstimate, 0, len(points))
	for _, p := range points {
		rttBE := p.Miles * msPerMileRTT
		proc := p.TdynamicMS - c*rttBE
		if proc < 0 {
			proc = 0
		}
		out = append(out, ProcEstimate{FE: p.FE, TprocMS: proc})
	}
	return out
}

// ProcSpread summarizes per-FE Tproc estimates: the median and the
// coefficient of dispersion (IQR/median) — small dispersion means the
// decomposition is consistent across FEs.
func ProcSpread(ests []ProcEstimate) (medianMS, dispersion float64) {
	if len(ests) == 0 {
		return 0, 0
	}
	xs := make([]float64, len(ests))
	for i, e := range ests {
		xs[i] = e.TprocMS
	}
	s := stats.Summarize(xs)
	if s.Median == 0 {
		return 0, 0
	}
	return s.Median, s.IQR() / s.Median
}

// TermPoint is one term-count bucket in the complexity correlation.
type TermPoint struct {
	Terms       int
	MedTdynMS   float64
	SampleCount int
}

// TermEffect answers the review question "is there a correlation
// between the fetching time and the number of words in the query?":
// bucket small-RTT sessions by term count, report per-bucket medians,
// and fit Tdynamic against term count. Use small-RTT sessions so
// Tdynamic approximates the fetch.
func TermEffect(params []Params, rttCap time.Duration) ([]TermPoint, stats.LinFit) {
	byTerms := map[int][]float64{}
	for _, p := range params {
		if p.RTT > rttCap || p.Terms <= 0 {
			continue
		}
		byTerms[p.Terms] = append(byTerms[p.Terms], float64(p.Tdynamic)/float64(time.Millisecond))
	}
	terms := make([]int, 0, len(byTerms))
	for k := range byTerms {
		terms = append(terms, k)
	}
	sort.Ints(terms)
	var pts []TermPoint
	var xs, ys []float64
	for _, k := range terms {
		dyn := byTerms[k]
		pts = append(pts, TermPoint{
			Terms:       k,
			MedTdynMS:   stats.Median(dyn),
			SampleCount: len(dyn),
		})
		for _, d := range dyn {
			xs = append(xs, float64(k))
			ys = append(ys, d)
		}
	}
	return pts, stats.LinReg(xs, ys)
}

// CacheVerdict is the outcome of the Section-3 caching-detection
// comparison.
type CacheVerdict struct {
	// KS is the two-sample Kolmogorov–Smirnov distance between the
	// same-query and distinct-query Tdynamic distributions.
	KS float64
	// MedianSameMS and MedianDistinctMS are the two medians.
	MedianSameMS     float64
	MedianDistinctMS float64
	// CachingDetected is true when the distributions differ enough to
	// conclude results are being cached (same-query markedly faster).
	CachingDetected bool
}

// DetectCaching compares Tdynamic distributions of the same-query and
// distinct-query probes. The paper's conclusion — FE servers do not
// appear to cache search results — corresponds to CachingDetected ==
// false on the deployed services. Detection requires both a large KS
// distance (≥ ksThreshold, ~0.5) and a collapsed same-query median
// (< 70% of the distinct-query median): a result cache short-circuits
// the back-end fetch, so repeats of one query become dramatically
// faster, not merely distributionally different.
//
// Feed it small-RTT sessions only (e.g. RTT under the service's Tdelta
// threshold): at large RTT Tdynamic is bound by window-round-trips of
// the static delivery rather than by the fetch, which masks any cache.
func DetectCaching(same, distinct []Params, ksThreshold float64) CacheVerdict {
	toMS := func(ps []Params) []float64 {
		out := make([]float64, 0, len(ps))
		for _, p := range ps {
			out = append(out, float64(p.Tdynamic)/float64(time.Millisecond))
		}
		return out
	}
	s, d := toMS(same), toMS(distinct)
	ks := stats.KS(stats.NewECDF(s), stats.NewECDF(d))
	ms, md := stats.Median(s), stats.Median(d)
	return CacheVerdict{
		KS:               ks,
		MedianSameMS:     ms,
		MedianDistinctMS: md,
		CachingDetected:  ks > ksThreshold && ms < 0.7*md,
	}
}
