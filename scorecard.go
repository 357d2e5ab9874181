package fesplit

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"fesplit/internal/stats"
)

// The scorecard states each claim of the paper's evaluation once. A
// structural row is an ordering or bound the reproduction must hold at
// any seed, and tests assert it; a calibrated row compares a number
// with the paper's and is reported, not asserted; an extension row, a
// claim beyond the numbered figures, is asserted. Bands come from the
// paper's text or a cited source, never from a reproduced value.

// Claim kinds and row verdicts.
const (
	Structural, Calibrated, Extension = "structural", "calibrated", "extension"
	VerdictIn, VerdictOut, VerdictNA  = "in", "out", "n/a"
)

// paperPointTolerance is the half-width, as a share of the value, of
// the band around a claim the paper states as one number.
const paperPointTolerance = 0.20

var inf = math.Inf(1)

// above(x) is the lower bound of a strict "> x": the next float64 up, so
// the band [above(x), +Inf] admits exactly the values above x.
func above(x float64) float64 { return math.Nextafter(x, inf) }

var positive = above(0)

// Claim is one row of the scorecard. measure reads its quantity off a
// report that holds the claim's figure; ok is false when the input is
// missing.
type Claim struct {
	Figure, Quantity, Paper string
	Lo, Hi                  float64
	Kind                    string
	measure                 func(*Report) (v float64, ok bool)
}

// ScorecardRow is a claim evaluated against one report; held is
// whether the report holds the claim's figure.
type ScorecardRow struct {
	Claim
	Value   float64 // zero when Verdict is n/a
	Verdict string
	held    bool
}

// scoredFigures says whether a report holds each figure a claim names.
var scoredFigures = map[string]func(*Report) bool{
	"Fig 3":      func(r *Report) bool { return r.Fig3 != nil },
	"Fig 4":      func(r *Report) bool { return r.Fig4 != nil },
	"Fig 5":      func(r *Report) bool { return r.Fig5 != nil },
	"Fig 6":      func(r *Report) bool { return r.Fig6 != nil },
	"Fig 7":      func(r *Report) bool { return r.Fig7 != nil },
	"Fig 8":      func(r *Report) bool { return r.Fig8 != nil },
	"Fig 9":      func(r *Report) bool { return r.Fig9 != nil },
	"§3":         func(r *Report) bool { return r.Caching != nil },
	"E1":         func(r *Report) bool { return r.TermEffect != nil },
	"§6":         func(r *Report) bool { return r.Interactive != nil },
	"Discussion": func(r *Report) bool { return r.Wireless != nil },
	"E7":         func(r *Report) bool { return r.ModelCheck != nil },
	"Overload":   func(r *Report) bool { return r.Overload != nil },
	"Hotspot":    func(r *Report) bool { return r.Hotspot != nil },
	"Failover":   func(r *Report) bool { return r.Failover != nil },
	"Capacity":   func(r *Report) bool { return r.Capacity != nil },
}

// claims is the scorecard table.
var claims = []Claim{
	{"Fig 3", "class spread of Tdynamic medians − spread of Tstatic medians (ms)",
		`Tdynamic "varies significantly with the types of search keywords"; Tstatic is "mostly insensitive"`, positive, inf, Structural, fig3ClassEffect},
	{"Fig 4", "largest receive gap at the lowest RTT (RTTs)", "static and dynamic clusters apart at small RTT", 3, inf, Structural, fig4Gap(false)},
	{"Fig 4", "largest receive gap at the highest RTT (RTTs)", `the clusters come "back-to-back or even coalesce" as RTT grows`, -inf, 1.5, Structural, fig4Gap(true)},
	{"Fig 5", "bing-like inference bounds hold (1 = yes)", "Tdelta ≤ Tfetch ≤ Tdynamic", 1, 1, Structural,
		per(fig5, func(b, _ *Fig5Data) (float64, bool) { return b2f(b.BoundsOK), true })},
	{"Fig 5", "google-like inference bounds hold (1 = yes)", "Tdelta ≤ Tfetch ≤ Tdynamic", 1, 1, Structural,
		per(fig5, func(_, g *Fig5Data) (float64, bool) { return b2f(g.BoundsOK), true })},
	{"Fig 5", "Tdelta→0 threshold, bing − google (ms)", "Bing's threshold above Google's", positive, inf, Structural,
		per(fig5, func(b, g *Fig5Data) (float64, bool) { return b.ThresholdMS - g.ThresholdMS, b.HasThresh && g.HasThresh })},
	{"Fig 5", "google-like Tdelta→0 threshold (ms)", "50–100 ms", 50, 100, Calibrated,
		per(fig5, func(_, g *Fig5Data) (float64, bool) { return g.ThresholdMS, g.HasThresh })},
	{"Fig 5", "bing-like Tdelta→0 threshold (ms)", "100–200 ms", 100, 200, Calibrated,
		per(fig5, func(b, _ *Fig5Data) (float64, bool) { return b.ThresholdMS, b.HasThresh })},
	{"Fig 6", "share of nodes under 20 ms, bing − google (%)", "Bing's FEs are closer", positive, inf, Structural,
		per(fig6, func(b, g *Fig6Data) (float64, bool) { return 100 * (b.FracUnder20ms - g.FracUnder20ms), true })},
	{"Fig 6", "bing-like share of nodes under 20 ms (%)", "> 80 %", 80, 100, Calibrated,
		per(fig6, func(b, _ *Fig6Data) (float64, bool) { return 100 * b.FracUnder20ms, true })},
	paperPoint("Fig 6", "google-like share of nodes under 20 ms (%)", 60, "%",
		per(fig6, func(_, g *Fig6Data) (float64, bool) { return 100 * g.FracUnder20ms, true })),
	{"Fig 7", "Tstatic median, bing − google (ms)", "Bing higher", positive, inf, Structural,
		per(fig7, func(b, g *Fig7Data) (float64, bool) { return b.MedStaticMS - g.MedStaticMS, true })},
	{"Fig 7", "Tdynamic median, bing − google (ms)", `Bing "significantly higher"`, positive, inf, Structural,
		per(fig7, func(b, g *Fig7Data) (float64, bool) { return b.MedDynamicMS - g.MedDynamicMS, true })},
	{"Fig 7", "Tdynamic IQR, bing − google (ms)", "Bing more variable", positive, inf, Structural,
		per(fig7, func(b, g *Fig7Data) (float64, bool) { return b.IQRDynMS - g.IQRDynMS, true })},
	{"Fig 8", "median of node-median overall delay, bing − google (ms)", `Bing "slightly longer"`, positive, inf, Structural,
		per(fig8, func(b, g *Fig8Data) (float64, bool) { return b.MedOverallMS - g.MedOverallMS, true })},
	{"Fig 8", "median node IQR of overall delay, bing − google (ms)", `Bing "more variable"`, positive, inf, Structural,
		per(fig8, func(b, g *Fig8Data) (float64, bool) { return b.SpreadMS - g.SpreadMS, true })},
	{"Fig 9", "smaller of the two slopes (ms/mile)", "fetch time grows with FE–BE distance", positive, inf, Structural,
		fit9(func(b, g *FactorResult) float64 { return min(b.SlopeMSPerMile, g.SlopeMSPerMile) })},
	{"Fig 9", "slope ratio, bing / google", `"very similar slope"`, 0.4, 2.5, Structural,
		fit9(func(b, g *FactorResult) float64 { return b.SlopeMSPerMile / g.SlopeMSPerMile })},
	{"Fig 9", "intercept ratio, bing / google", "7.6× (260 / 34 ms)", 4, inf, Structural,
		fit9(func(b, g *FactorResult) float64 { return b.ProcTimeMS / g.ProcTimeMS })},
	paperPoint("Fig 9", "bing-like slope (ms/mile)", 0.08, "ms/mile",
		fit9(func(b, g *FactorResult) float64 { return b.SlopeMSPerMile })),
	paperPoint("Fig 9", "google-like slope (ms/mile)", 0.099, "ms/mile",
		fit9(func(b, g *FactorResult) float64 { return g.SlopeMSPerMile })),
	paperPoint("Fig 9", "bing-like intercept (ms)", 260, "ms",
		fit9(func(b, g *FactorResult) float64 { return b.ProcTimeMS })),
	paperPoint("Fig 9", "google-like intercept (ms)", 34, "ms",
		fit9(func(b, g *FactorResult) float64 { return g.ProcTimeMS })),
	// A caching probe that has not run has no distinct-query median.
	{"§3", "caching detected on the deployed service (1 = yes)", `"FE servers do not appear to cache any search result"`, 0, 0, Structural,
		func(r *Report) (float64, bool) {
			return b2f(r.Caching.Deployed.CachingDetected), r.Caching.Deployed.MedianDistinctMS > 0
		}},
	{"§3", "caching detected with the BE result cache on (1 = yes)", "the method catches a cache (positive control)", 1, 1, Structural,
		func(r *Report) (float64, bool) {
			return b2f(r.Caching.Control.CachingDetected), r.Caching.Control.MedianDistinctMS > 0
		}},
	{"E1", "bing-like Tdynamic slope per query term (ms/term)", "reviewers: does fetch time grow with the number of words in the query?", positive, inf, Extension,
		per(termEffect, func(b, _ *TermEffectData) (float64, bool) { return b.SlopeMSPerTerm, true })},
	{"E1", "google-like Tdynamic slope per query term (ms/term)", "reviewers: does fetch time grow with the number of words in the query?", positive, inf, Extension,
		per(termEffect, func(_, g *TermEffectData) (float64, bool) { return g.SlopeMSPerTerm, true })},
	{"E1", "per-term slope, bing − google (ms/term)", "Bing's back end charges more per term (12 vs 2 ms configured)", positive, inf, Extension,
		per(termEffect, func(b, g *TermEffectData) (float64, bool) { return b.SlopeMSPerTerm - g.SlopeMSPerTerm, true })},
	// A probe that typed nothing, or a wireless leg that has not run, is missing.
	{"§6", "TCP connections − keystrokes", `"a separate query (using a new TCP connection)" after each letter`, 0, 0, Extension,
		func(r *Report) (float64, bool) {
			return float64(r.Interactive.Connections - r.Interactive.Keystrokes), r.Interactive.Keystrokes > 0
		}},
	{"§6", "every keystroke session fits the basic model (1 = yes)", `"the delivery of each query hence still fits our basic model"`, 1, 1, Extension,
		func(r *Report) (float64, bool) { return b2f(r.Interactive.ModelHolds), r.Interactive.Keystrokes > 0 }},
	{"Discussion", "median overall delay, wireless − campus (ms)", `where "loss rates are high", "placing FEs closer to users ... may significantly improve" delay`, positive, inf, Extension,
		func(r *Report) (float64, bool) {
			return r.Wireless.WirelessOverallMS - r.Wireless.CampusOverallMS, min(r.Wireless.CampusOverallMS, r.Wireless.WirelessOverallMS) > 0
		}},
	{"Discussion", "client-side retransmissions, wireless − campus", `"loss rates are high (e.g., in a wireless network)"`, positive, inf, Extension,
		func(r *Report) (float64, bool) {
			return float64(r.Wireless.WirelessRetrans - r.Wireless.CampusRetrans), min(r.Wireless.CampusOverallMS, r.Wireless.WirelessOverallMS) > 0
		}},
	{"E7", "median absolute Tdynamic error of the analytic model (ms)", "the §2 model predicts what the simulation measures", -inf, 15, Extension,
		func(r *Report) (float64, bool) { return r.ModelCheck.MedAbsErrTdynMS, r.ModelCheck.Nodes > 0 }},
	{"E7", "median absolute Tdelta error of the analytic model (ms)", "the §2 model predicts what the simulation measures", -inf, 15, Extension,
		func(r *Report) (float64, bool) { return r.ModelCheck.MedAbsErrDeltaMS, r.ModelCheck.Nodes > 0 }},
	{"E7", "share of nodes whose Tdynamic error is ≤ 10 ms", "the §2 model predicts what the simulation measures", 0.5, inf, Extension,
		func(r *Report) (float64, bool) { return r.ModelCheck.Within10ms, r.ModelCheck.Nodes > 0 }},
	{"Overload", "max queue depth − queue cap", "the cap bounds the waiting room", -inf, 0, Extension,
		func(r *Report) (float64, bool) { return float64(r.Overload.MaxQueueDepth - r.Overload.QueueCap), true }},
	{"Overload", "BE rejections", "a 4× spike overloads the capped cluster", positive, inf, Extension,
		func(r *Report) (float64, bool) { return float64(r.Overload.BERejected), true }},
	{"Overload", "FE retries", "the FE retries a BE 503", positive, inf, Extension,
		func(r *Report) (float64, bool) { return float64(r.Overload.FERetries), true }},
	{"Overload", "offered, surge bucket / quiet bucket", "a 4× arrival spike", above(2), inf, Extension,
		surge(false, func(in, quiet *QueueBucket) float64 { return float64(in.Offered) / float64(quiet.Offered) })},
	{"Overload", "degraded + rejected in the surge bucket", "the FE sheds load while the spike lasts", positive, inf, Extension,
		surge(false, func(in, _ *QueueBucket) float64 { return float64(in.Degraded + in.Rejected) })},
	{"Overload", "p99 Tdynamic, surge − quiet bucket (ms)", "the spike queues", positive, inf, Extension,
		surge(false, func(in, quiet *QueueBucket) float64 { return in.P99Ms - quiet.P99Ms })},
	{"Hotspot", "offered, surge − quiet bucket", "the hot keyword leaves the arrival rate unchanged", 0, 0, Extension,
		surge(true, func(in, quiet *QueueBucket) float64 { return float64(in.Offered - quiet.Offered) })},
	{"Hotspot", "p99 Tdynamic, surge − quiet bucket (ms)", "load is work, not just queries per second", positive, inf, Extension,
		surge(true, func(in, quiet *QueueBucket) float64 { return in.P99Ms - quiet.P99Ms })},
	{"Hotspot", "max queue depth", "the hot query queues", positive, inf, Extension,
		func(r *Report) (float64, bool) { return float64(r.Hotspot.MaxQueueDepth), true }},
	{"Failover", "median Tdynamic, post − pre failover (ms)", "the farthest BE adds tens of ms of backbone propagation", above(10), inf, Extension,
		func(r *Report) (float64, bool) {
			return r.Failover.PostP50Ms - r.Failover.PreP50Ms, r.Failover.PreP50Ms > 0
		}},
	{"Capacity", "largest cluster meets its SLO (1 = yes)", `Badue et al., "Capacity Planning for Vertical Search Engines": response time stays flat below the knee`, 1, 1, Extension,
		sweep(func(p []CapacityPoint) float64 { return b2f(p[0].MeetsSLO) })},
	{"Capacity", "smallest cluster meets its SLO (1 = yes)", "Badue et al.: past the knee the tail breaks the SLO", 0, 0, Extension,
		sweep(func(p []CapacityPoint) float64 { return b2f(p[len(p)-1].MeetsSLO) })},
	{"Capacity", "smallest replica count meeting the SLO", "some swept cluster meets the SLO", 1, inf, Extension,
		func(r *Report) (float64, bool) { return float64(r.Capacity.MinReplicas), len(r.Capacity.Points) > 1 }},
	{"Capacity", "worst p99 ratio, one step fewer replicas / more", "fewer replicas never cut the tail (a few % wobble)", 0.9, inf, Extension,
		worstStep(func(more, fewer CapacityPoint) float64 { return fewer.P99Ms / more.P99Ms })},
	{"Capacity", "worst utilization step, one step fewer replicas − more", "fewer replicas never cut utilization", 0, inf, Extension,
		worstStep(func(more, fewer CapacityPoint) float64 { return fewer.Utilization - more.Utilization })},
}

// paperPoint is a calibrated claim the paper states as one value v: its
// band is v ± paperPointTolerance.
func paperPoint(figure, quantity string, v float64, unit string, m func(*Report) (float64, bool)) Claim {
	return Claim{figure, quantity, fmt.Sprintf("%g %s", v, unit), v * (1 - paperPointTolerance), v * (1 + paperPointTolerance), Calibrated, m}
}

// Scorecard evaluates every claim against the report. A row whose
// input is missing — its figure absent, no Tdelta threshold found, a
// Fig 9 fit without points, a probe that has not run — is n/a, never in.
func (r *Report) Scorecard() []ScorecardRow {
	rows := make([]ScorecardRow, len(claims))
	for i, c := range claims {
		rows[i] = ScorecardRow{Claim: c, Verdict: VerdictNA, held: scoredFigures[c.Figure](r)}
		if !rows[i].held {
			continue
		}
		if v, ok := c.measure(r); ok && !math.IsNaN(v) {
			rows[i].Value, rows[i].Verdict = v, VerdictOut
			if c.Lo <= v && v <= c.Hi {
				rows[i].Verdict = VerdictIn
			}
		}
	}
	return rows
}

// Band renders the claim's band: "> 0", "≥ 3", "≤ 1.5", "= 1" or
// "[lo, hi]"; a lower bound above(x) of a whole x is "> x".
func (c Claim) Band() string {
	switch x := math.Round(c.Lo); {
	case c.Hi == inf && c.Lo == above(x):
		return fmt.Sprintf("> %.4g", x)
	case c.Hi == inf:
		return fmt.Sprintf("≥ %.4g", c.Lo)
	case c.Lo == -inf:
		return fmt.Sprintf("≤ %.4g", c.Hi)
	case c.Lo == c.Hi:
		return fmt.Sprintf("= %.4g", c.Lo)
	}
	return fmt.Sprintf("[%.4g, %.4g]", c.Lo, c.Hi)
}

// Measured renders the row's value, or "n/a".
func (r ScorecardRow) Measured() string {
	if r.Verdict == VerdictNA {
		return VerdictNA
	}
	return fmt.Sprintf("%.4g", r.Value)
}

// WriteScorecardCSV writes the rows as scorecard.csv: the band as its
// exact bounds, the value empty when n/a.
func WriteScorecardCSV(w io.Writer, rows []ScorecardRow) error {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Figure, r.Quantity, r.Paper, r.Kind, f(r.Lo), f(r.Hi), "", r.Verdict}
		if r.Verdict != VerdictNA {
			out[i][6] = f(r.Value)
		}
	}
	return writeCSV(w, []string{"figure", "quantity", "paper", "kind", "lo", "hi", "value", "verdict"}, out)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// per measures f over the bing-like and google-like entries of a
// per-service figure; ok is false unless both are there.
func per[T interface {
	comparable
	service() string
}](figs func(*Report) []T, f func(b, g T) (float64, bool)) func(*Report) (float64, bool) {
	return func(r *Report) (float64, bool) {
		var b, g, none T
		for _, d := range figs(r) {
			switch {
			case d == none:
			case d.service() == "bing-like":
				b = d
			case d.service() == "google-like":
				g = d
			}
		}
		if b == none || g == none {
			return 0, false
		}
		return f(b, g)
	}
}

func (d *Fig5Data) service() string { return d.Service }
func (d *Fig6Data) service() string { return d.Service }
func (d *Fig7Data) service() string { return d.Service }
func (d *Fig8Data) service() string { return d.Service }
func (d *Fig9Data) service() string { return d.Service }

func fig5(r *Report) []*Fig5Data { return r.Fig5 }
func fig6(r *Report) []*Fig6Data { return r.Fig6 }
func fig7(r *Report) []*Fig7Data { return r.Fig7 }
func fig8(r *Report) []*Fig8Data { return r.Fig8 }
func fig9(r *Report) []*Fig9Data { return r.Fig9 }

func (d *TermEffectData) service() string    { return d.Service }
func termEffect(r *Report) []*TermEffectData { return r.TermEffect }

// surge measures f over the overload (hotspot when hot) cell's first
// bucket 4 s into its surge and its first bucket from 4 s into the run
// to 4 s before the surge; a layout without either is missing.
func surge(hot bool, f func(in, quiet *QueueBucket) float64) func(*Report) (float64, bool) {
	return func(r *Report) (float64, bool) {
		var buckets []QueueBucket
		var start, end float64
		if hot {
			buckets, start, end = r.Hotspot.Buckets, r.Hotspot.SurgeStartS, r.Hotspot.SurgeEndS
		} else {
			buckets, start, end = r.Overload.Buckets, r.Overload.SurgeStartS, r.Overload.SurgeEndS
		}
		in := slices.IndexFunc(buckets, func(b QueueBucket) bool { return b.StartS >= start+4 && b.StartS < end })
		quiet := slices.IndexFunc(buckets, func(b QueueBucket) bool { return b.StartS >= 4 && b.StartS < start-4 })
		if in < 0 || quiet < 0 {
			return 0, false
		}
		return f(&buckets[in], &buckets[quiet]), true
	}
}

// sweep measures f over the capacity sweep's points, by decreasing
// replica count; a sweep of fewer than two is missing.
func sweep(f func([]CapacityPoint) float64) func(*Report) (float64, bool) {
	return func(r *Report) (float64, bool) {
		if p := r.Capacity.Points; len(p) > 1 {
			return f(p), true
		}
		return 0, false
	}
}

// worstStep measures the sweep's smallest step(more, fewer) over
// adjacent points.
func worstStep(step func(more, fewer CapacityPoint) float64) func(*Report) (float64, bool) {
	return sweep(func(p []CapacityPoint) float64 {
		worst := inf
		for i := 1; i < len(p); i++ {
			worst = min(worst, step(p[i-1], p[i]))
		}
		return worst
	})
}

// fit9 measures f over both Fig 9 fits; a fit without points is
// missing.
func fit9(f func(b, g *FactorResult) float64) func(*Report) (float64, bool) {
	return per(fig9, func(b, g *Fig9Data) (float64, bool) {
		return f(&b.Result, &g.Result), len(b.Result.Points) > 0 && len(g.Result.Points) > 0
	})
}

// fig3ClassEffect is the spread (max − min) of the keyword classes'
// Tdynamic medians less that of their Tstatic medians.
func fig3ClassEffect(r *Report) (float64, bool) {
	spread := func(series map[QueryClass][]float64) (float64, bool) {
		lo, hi := inf, -inf
		for _, c := range r.Fig3.Classes {
			if len(series[c]) == 0 {
				return 0, false
			}
			med := stats.Summarize(series[c]).Median
			lo, hi = min(lo, med), max(hi, med)
		}
		return hi - lo, len(r.Fig3.Classes) > 0
	}
	dy, ok1 := spread(r.Fig3.Tdynamic)
	st, ok2 := spread(r.Fig3.Tstatic)
	return dy - st, ok1 && ok2
}

// fig4Gap is the largest gap between received payload packets, in
// units of the client's RTT, on the lowest-RTT timeline of Fig 4's
// RTT-ordered rows (the highest-RTT one when last). Once the static and
// dynamic clusters merge, only slow-start rounds of about one RTT are
// left.
func fig4Gap(last bool) func(*Report) (float64, bool) {
	return func(r *Report) (float64, bool) {
		if len(r.Fig4) == 0 {
			return 0, false
		}
		row := r.Fig4[0]
		if last {
			row = r.Fig4[len(r.Fig4)-1]
		}
		prev, gap := -1.0, 0.0
		for _, ev := range row.Events {
			if !ev.Send && ev.Payload > 0 {
				if prev >= 0 {
					gap = max(gap, ev.AtMS-prev)
				}
				prev = ev.AtMS
			}
		}
		return gap / row.RTTMS, true
	}
}
