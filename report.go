package fesplit

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"fesplit/internal/baseline"
	"fesplit/internal/stats"
)

// Report bundles every regenerated figure of the study, plus the
// extension experiments (term-count correlation, interactive search,
// wireless what-if).
type Report struct {
	Config      StudyConfig
	Fig3        *Fig3Data
	Fig4        []Fig4Row
	Fig5        []*Fig5Data
	Fig6        []*Fig6Data
	Fig7        []*Fig7Data
	Fig8        []*Fig8Data
	Fig9        []*Fig9Data
	Caching     *CachingData
	TermEffect  []*TermEffectData
	Interactive *InteractiveData
	Wireless    *WirelessData
	ModelCheck  *ModelValidationData
	// Load-aware back-end queueing scenarios (docs/OPERATING.md §3).
	Overload *OverloadData
	Hotspot  *HotspotData
	Failover *FailoverData
	Capacity *CapacityData
}

// WriteText renders the report in the order of the paper's figures.
func (r *Report) WriteText(w io.Writer) error {
	pf := func(format string, args ...interface{}) { fmt.Fprintf(w, format, args...) }
	hr := func(title string) { pf("\n===== %s =====\n", title) }

	pf("fesplit reproduction study (seed=%d, nodes=%d)\n", r.Config.Seed, r.Config.Nodes)

	if r.Fig3 != nil {
		hr("Figure 3 — keyword-class effect on Tstatic / Tdynamic (moving medians, ms)")
		pf("%-10s %14s %14s %14s %14s\n", "class",
			"Tstatic med", "Tstatic IQR", "Tdyn med", "Tdyn IQR")
		for _, c := range r.Fig3.Classes {
			ss := stats.Summarize(r.Fig3.Tstatic[c])
			ds := stats.Summarize(r.Fig3.Tdynamic[c])
			pf("%-10s %14.1f %14.1f %14.1f %14.1f\n",
				c, ss.Median, ss.IQR(), ds.Median, ds.IQR())
		}
	}

	if r.Fig4 != nil {
		hr("Figure 4 — packet-event timelines per client RTT (ms since first SYN)")
		for _, row := range r.Fig4 {
			pf("RTT %7.1f ms | ", row.RTTMS)
			var marks []string
			for _, ev := range row.Events {
				if ev.Payload == 0 && !strings.Contains(ev.Flags, "SYN") &&
					!strings.Contains(ev.Flags, "FIN") {
					continue // skip pure ACK noise in the condensed view
				}
				dir := "↑"
				if !ev.Send {
					dir = "↓"
				}
				marks = append(marks, fmt.Sprintf("%s%.0f", dir, ev.AtMS))
			}
			const maxMarks = 24
			if len(marks) > maxMarks {
				marks = append(marks[:maxMarks], "…")
			}
			pf("%s\n", strings.Join(marks, " "))
		}
	}

	if r.Fig5 != nil {
		hr("Figure 5 — Tstatic / Tdynamic / Tdelta vs RTT, fixed FE")
		for _, f := range r.Fig5 {
			pf("\n[%s] fixed FE = %s\n", f.Service, f.FixedFE)
			pf("%-10s %10s %10s %10s %10s\n", "RTT(ms)", "N", "Tstat", "Tdyn", "Tdelta")
			for _, n := range sampleNodes(f.Nodes, 12) {
				pf("%-10.1f %10d %10.1f %10.1f %10.1f\n",
					ms(n.RTT), n.N, ms(n.MedStatic), ms(n.MedDynamic), ms(n.MedDelta))
			}
			if f.HasThresh {
				pf("Tdelta→0 threshold: ~%.0f ms RTT\n", f.ThresholdMS)
			}
			pf("inference bounds: Tdelta %.1f ≤ Tfetch %.1f ≤ Tdynamic %.1f ms — ok=%v\n",
				f.BoundLoMS, f.TruthMS, f.BoundHiMS, f.BoundsOK)
			var rtts, deltas []float64
			for _, n := range f.Nodes {
				rtts = append(rtts, ms(n.RTT))
				deltas = append(deltas, ms(n.MedDelta))
			}
			pf("%s", stats.Scatter(rtts, deltas, 56, 9, "RTT (ms)", "Tdelta (ms)"))
		}
	}

	if r.Fig6 != nil {
		hr("Figure 6 — RTT to default FE (CDF)")
		series := map[string]*stats.ECDF{}
		var xmax float64
		for _, f := range r.Fig6 {
			series[f.Service] = stats.NewECDF(f.RTTsMS)
			if m := stats.Max(f.RTTsMS); m > xmax {
				xmax = m
			}
			pf("%-14s nodes under 20 ms: %.0f%%\n", f.Service, 100*f.FracUnder20ms)
		}
		if xmax > 100 {
			xmax = 100
		}
		pf("%s", stats.Render(series, xmax, 10, 60))
	}

	if r.Fig7 != nil {
		hr("Figure 7 — Tstatic / Tdynamic with default FEs")
		pf("%-14s %12s %12s %12s %12s\n", "service",
			"Tstat med", "Tstat IQR", "Tdyn med", "Tdyn IQR")
		for _, f := range r.Fig7 {
			pf("%-14s %12.1f %12.1f %12.1f %12.1f\n",
				f.Service, f.MedStaticMS, f.IQRStaticMS, f.MedDynamicMS, f.IQRDynMS)
		}
	}

	if r.Fig8 != nil {
		hr("Figure 8 — overall delay per node (box plots, ms)")
		for _, f := range r.Fig8 {
			pf("\n[%s] median-of-node-medians %.1f ms, median node IQR %.1f ms\n",
				f.Service, f.MedOverallMS, f.SpreadMS)
			for i, b := range f.Boxes {
				if i >= 10 {
					pf("  … %d more nodes\n", len(f.Boxes)-10)
					break
				}
				pf("  %-10s min %7.1f  q1 %7.1f  med %7.1f  q3 %7.1f  max %7.1f\n",
					f.Nodes[i], b.Min, b.Q1, b.Median, b.Q3, b.Max)
			}
		}
	}

	if r.Fig9 != nil {
		hr("Figure 9 — factoring the FE-BE fetch time")
		for _, f := range r.Fig9 {
			pf("[%s → %s] Tdynamic = %.4f·miles + %.1f ms   (R²=%.2f, %d FEs)\n",
				f.Service, f.BE, f.Result.SlopeMSPerMile, f.Result.ProcTimeMS,
				f.Result.Fit.R2, len(f.Result.Points))
			if f.Result.ProcCI.Width() > 0 {
				pf("    95%% CI: slope [%.4f, %.4f] ms/mile, intercept [%.1f, %.1f] ms\n",
					f.Result.SlopeCI.Lo, f.Result.SlopeCI.Hi,
					f.Result.ProcCI.Lo, f.Result.ProcCI.Hi)
			}
			var miles, tdyn []float64
			for _, p := range f.Result.Points {
				miles = append(miles, p.Miles)
				tdyn = append(tdyn, p.TdynamicMS)
			}
			pf("%s", stats.Scatter(miles, tdyn, 56, 8, "FE-BE distance (miles)", "Tdynamic (ms)"))
		}
		pf("intercept ≈ back-end processing time; slope ≈ network delay per mile.\n")
	}

	if r.Caching != nil {
		hr("Section 3 — do FE servers cache search results?")
		d, c := r.Caching.Deployed, r.Caching.Control
		pf("deployed service:  KS=%.2f  same=%.0fms distinct=%.0fms  caching detected: %v\n",
			d.KS, d.MedianSameMS, d.MedianDistinctMS, d.CachingDetected)
		pf("positive control:  KS=%.2f  same=%.0fms distinct=%.0fms  caching detected: %v\n",
			c.KS, c.MedianSameMS, c.MedianDistinctMS, c.CachingDetected)
	}

	if r.TermEffect != nil {
		hr("Extension — fetch time vs query term count (reviewer question)")
		for _, d := range r.TermEffect {
			pf("[%s] Tdynamic ≈ %.2f ms/term (R²=%.2f)\n", d.Service, d.SlopeMSPerTerm, d.R2)
			for _, p := range d.Points {
				pf("  %d terms: Tdyn %.1f ms (n=%d)\n", p.Terms, p.MedTdynMS, p.SampleCount)
			}
		}
	}

	if r.Interactive != nil {
		hr("Section 6 — interactive search-as-you-type")
		d := r.Interactive
		pf("typing %q: %d keystrokes, %d TCP connections\n",
			d.Keywords, d.Keystrokes, d.Connections)
		pf("per-keystroke Tdynamic (ms):")
		for _, v := range d.PerKeystrokeTdynMS {
			pf(" %.0f", v)
		}
		pf("\nevery keystroke session fits the basic model: %v\n", d.ModelHolds)
	}

	if r.ModelCheck != nil {
		hr("Section 2 — model validation (simulation ground truth)")
		m := r.ModelCheck
		pf("[%s] analytic model vs %d measured nodes: median |Tdynamic err| %.1f ms, "+
			"median |Tdelta err| %.1f ms, %.0f%% of nodes within 10 ms\n",
			m.Service, m.Nodes, m.MedAbsErrTdynMS, m.MedAbsErrDeltaMS, 100*m.Within10ms)
	}

	if r.Wireless != nil {
		hr("Discussion — wireless last mile")
		d := r.Wireless
		pf("[%s] median overall delay: campus %.1f ms, wireless %.1f ms\n",
			d.Service, d.CampusOverallMS, d.WirelessOverallMS)
		pf("client-side retransmissions: campus %d, wireless %d\n",
			d.CampusRetrans, d.WirelessRetrans)
	}

	writeBuckets := func(buckets []QueueBucket) {
		pf("%-8s %8s %6s %9s %9s %10s %10s %7s %6s\n", "start_s",
			"offered", "ok", "degraded", "rejected", "p50_ms", "p99_ms", "depth", "util")
		for _, b := range buckets {
			pf("%-8.0f %8d %6d %9d %9d %10.1f %10.1f %7d %6.2f\n",
				b.StartS, b.Offered, b.OK, b.Degraded, b.Rejected,
				b.P50Ms, b.P99Ms, b.QueueDepth, b.Utilization)
		}
	}

	if r.Overload != nil {
		hr("Queueing — traffic-spike overload")
		d := r.Overload
		pf("[%s] %d replicas, queue cap %d, 4× arrival surge in [%.0f, %.0f) s\n",
			d.Service, d.Replicas, d.QueueCap, d.SurgeStartS, d.SurgeEndS)
		writeBuckets(d.Buckets)
		pf("BE rejections %d, FE retries %d, degraded responses %d, max queue depth %d\n",
			d.BERejected, d.FERetries, d.Degraded, d.MaxQueueDepth)
	}

	if r.Hotspot != nil {
		hr("Queueing — hotspot keyword")
		d := r.Hotspot
		pf("[%s] %d replicas, %d-term hot query in [%.0f, %.0f) s at unchanged rate\n",
			d.Service, d.Replicas, d.HotTerms, d.SurgeStartS, d.SurgeEndS)
		writeBuckets(d.Buckets)
		pf("max queue depth %d\n", d.MaxQueueDepth)
	}

	if r.Failover != nil {
		hr("Queueing — FE-fleet failover to distant BE")
		d := r.Failover
		pf("[%s] at %.0f s every FE fails over (e.g. %s → %s)\n",
			d.Service, d.FailAtS, d.FromBE, d.ToBE)
		writeBuckets(d.Buckets)
		pf("median Tdynamic: pre %.1f ms → post %.1f ms\n", d.PreP50Ms, d.PostP50Ms)
	}

	if r.Capacity != nil {
		hr("Queueing — capacity-planning sweep")
		d := r.Capacity
		pf("[%s] %.1f queries/s offered; SLO: p99 Tdynamic ≤ %.1f ms (2× uncontended)\n",
			d.Service, d.OfferedQPS, d.SLOMs)
		pf("%-9s %8s %6s %6s %7s %10s %10s %5s\n", "replicas",
			"offered", "ok", "util", "depth", "p50_ms", "p99_ms", "slo")
		for _, p := range d.Points {
			pf("%-9d %8d %6d %6.2f %7d %10.1f %10.1f %5v\n",
				p.Replicas, p.Offered, p.OK, p.Utilization, p.MaxQueueDepth,
				p.P50Ms, p.P99Ms, p.MeetsSLO)
		}
		pf("smallest cluster meeting the SLO: %d replicas\n", d.MinReplicas)
	}

	var scored []ScorecardRow
	for _, row := range r.Scorecard() {
		if row.held {
			scored = append(scored, row)
		}
	}
	if scored != nil {
		hr("Scorecard — the paper's claims (structural and extension rows are asserted by tests; calibrated rows are reported)")
		pf("%-10s %-10s %-7s %10s %16s  %s\n", "figure", "kind", "verdict", "measured", "band", "quantity — paper")
		for _, row := range scored {
			pf("%-10s %-10s %-7s %10s %16s  %s — %s\n", row.Figure, row.Kind, row.Verdict,
				row.Measured(), row.Band(), row.Quantity, row.Paper)
		}
	}
	return nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sampleNodes picks ~k evenly spaced nodes across the RTT range for
// compact tables.
func sampleNodes(nodes []NodeSummary, k int) []NodeSummary {
	if len(nodes) <= k {
		return nodes
	}
	out := make([]NodeSummary, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, nodes[i*(len(nodes)-1)/(k-1)])
	}
	return out
}

// WritePlacementSweep renders the placement-ablation table. A median
// over zero samples — no query completed, or no fetch finished, at that
// position — prints as "-", never as a delay of zero.
func WritePlacementSweep(w io.Writer, pts []PlacementPoint) {
	fmt.Fprintf(w, "%-10s %14s %14s %12s %12s %12s\n",
		"fraction", "client-FE mi", "FE-BE mi", "overall ms", "Tdyn ms", "fetch ms")
	median := func(d time.Duration, samples int) string {
		if samples == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", ms(d))
	}
	for _, p := range pts {
		fmt.Fprintf(w, "%-10.2f %14.0f %14.0f %12s %12s %12s\n",
			p.Fraction, p.ClientFEMiles, p.FEBEMiles,
			median(p.Overall, p.N), median(p.MedTdynamic, p.N), median(p.MedFetch, p.Fetches))
	}
}

// RunDirectBaseline runs the no-FE comparator and returns per-node
// results sorted by RTT.
func RunDirectBaseline(cfg DeploymentConfig, nodes int, fleetSeed int64,
	repeats int, interval time.Duration, querySeed int64) ([]baseline.DirectResult, error) {
	res, err := baseline.RunDirect(cfg, nodes, fleetSeed, repeats, interval, querySeed)
	if err != nil {
		return nil, err
	}
	sort.Slice(res, func(i, j int) bool { return res[i].RTT < res[j].RTT })
	return res, nil
}
