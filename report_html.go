package fesplit

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"fesplit/internal/obs"
	"fesplit/internal/obs/critpath"
	"fesplit/internal/viz"
)

// WriteHTML renders the report as one self-contained HTML page with
// inline SVG figures: the RTT CDFs (Figure 6), RTT-vs-parameter
// scatters (Figures 5 and 7), per-node overall-delay box plots
// (Figure 8), the fetch-time factoring regression (Figure 9), and —
// when an observability registry and tail-sampled exemplars are
// supplied — the metric quantile tables and exemplar span timelines.
// Every section is optional: nil report fields, a nil registry and an
// empty exemplar list are simply skipped. Output is deterministic:
// same inputs render byte-identical pages.
func (r *Report) WriteHTML(w io.Writer, reg *MetricsRegistry, exemplars []Exemplar) error {
	bw := bufio.NewWriter(w) // keeps the first write error; Flush returns it
	fmt.Fprintf(bw, "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(bw, "<title>fesplit report (seed=%d)</title>\n", r.Config.Seed)
	fmt.Fprintf(bw, `<style>
body { font-family: sans-serif; margin: 2em auto; max-width: 72em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.15em; margin-top: 2em; border-bottom: 1px solid #ccc; }
p.note { color: #555; font-size: 0.92em; }
table { border-collapse: collapse; font-size: 0.9em; margin: 0.6em 0; }
th, td { border: 1px solid #ccc; padding: 2px 8px; text-align: right; }
th { background: #f2f2f2; } td.l, th.l { text-align: left; }
.violation { color: #b00; font-weight: bold; }
figure { margin: 0.8em 0; }
</style>
</head>
<body>
`)
	fmt.Fprintf(bw, "<h1>fesplit reproduction study</h1>\n")
	fmt.Fprintf(bw, "<p class=\"note\">seed %d, %d vantage nodes — figures regenerated from the deterministic simulation.</p>\n",
		r.Config.Seed, r.Config.Nodes)

	r.htmlFig6(bw)
	r.htmlFig5(bw)
	r.htmlFig7(bw)
	r.htmlFig8(bw)
	r.htmlFig9(bw)
	htmlCritPath(bw, reg, exemplars)
	htmlMetrics(bw, reg)
	htmlRuntime(bw, reg)
	htmlExemplars(bw, exemplars)

	fmt.Fprintf(bw, "</body>\n</html>\n")
	return bw.Flush()
}

func (r *Report) htmlFig6(bw *bufio.Writer) {
	if len(r.Fig6) == 0 {
		return
	}
	fmt.Fprintf(bw, "<h2>Figure 6 — RTT to default FE (CDF)</h2>\n")
	var series []viz.Series
	for _, f := range r.Fig6 {
		xs := append([]float64(nil), f.RTTsMS...)
		sort.Float64s(xs)
		s := viz.Series{Name: f.Service}
		for i, x := range xs {
			s.X = append(s.X, x)
			s.Y = append(s.Y, float64(i+1)/float64(len(xs)))
		}
		series = append(series, s)
		fmt.Fprintf(bw, "<p class=\"note\">%s: %.0f%% of nodes under 20 ms</p>\n",
			viz.Esc(f.Service), 100*f.FracUnder20ms)
	}
	fmt.Fprintf(bw, "<figure>%s</figure>\n", viz.Plot(series, viz.Options{
		Title: "RTT to default FE", XLabel: "RTT (ms)", YLabel: "CDF", Step: true,
	}))
}

func (r *Report) htmlFig5(bw *bufio.Writer) {
	if len(r.Fig5) == 0 {
		return
	}
	fmt.Fprintf(bw, "<h2>Figure 5 — T<sub>static</sub> / T<sub>dynamic</sub> / T<sub>delta</sub> vs RTT (fixed FE)</h2>\n")
	for _, f := range r.Fig5 {
		series := nodeParamSeries(f.Nodes)
		fmt.Fprintf(bw, "<figure>%s</figure>\n", viz.Plot(series, viz.Options{
			Title:  fmt.Sprintf("%s — fixed FE %s", f.Service, f.FixedFE),
			XLabel: "node median RTT (ms)", YLabel: "ms",
		}))
		fmt.Fprintf(bw, "<p class=\"note\">inference bounds: Tdelta %.1f ≤ Tfetch %.1f ≤ Tdynamic %.1f ms (ok=%v)",
			f.BoundLoMS, f.TruthMS, f.BoundHiMS, f.BoundsOK)
		if f.HasThresh {
			fmt.Fprintf(bw, "; Tdelta→0 threshold ≈ %.0f ms RTT", f.ThresholdMS)
		}
		fmt.Fprintf(bw, "</p>\n")
	}
}

func (r *Report) htmlFig7(bw *bufio.Writer) {
	if len(r.Fig7) == 0 {
		return
	}
	fmt.Fprintf(bw, "<h2>Figure 7 — T<sub>static</sub> / T<sub>dynamic</sub> with default FEs</h2>\n")
	for _, f := range r.Fig7 {
		series := nodeParamSeries(f.Nodes)
		fmt.Fprintf(bw, "<figure>%s</figure>\n", viz.Plot(series, viz.Options{
			Title:  fmt.Sprintf("%s — default FEs", f.Service),
			XLabel: "node median RTT (ms)", YLabel: "ms",
		}))
		fmt.Fprintf(bw, "<p class=\"note\">%s: Tstatic med %.1f (IQR %.1f) ms, Tdynamic med %.1f (IQR %.1f) ms</p>\n",
			viz.Esc(f.Service), f.MedStaticMS, f.IQRStaticMS, f.MedDynamicMS, f.IQRDynMS)
	}
}

// nodeParamSeries builds the shared RTT-vs-parameter scatter series.
func nodeParamSeries(nodes []NodeSummary) []viz.Series {
	st := viz.Series{Name: "Tstatic"}
	dy := viz.Series{Name: "Tdynamic"}
	de := viz.Series{Name: "Tdelta"}
	for _, n := range nodes {
		rtt := ms(n.RTT)
		st.X = append(st.X, rtt)
		st.Y = append(st.Y, ms(n.MedStatic))
		dy.X = append(dy.X, rtt)
		dy.Y = append(dy.Y, ms(n.MedDynamic))
		de.X = append(de.X, rtt)
		de.Y = append(de.Y, ms(n.MedDelta))
	}
	return []viz.Series{st, dy, de}
}

func (r *Report) htmlFig8(bw *bufio.Writer) {
	if len(r.Fig8) == 0 {
		return
	}
	fmt.Fprintf(bw, "<h2>Figure 8 — overall delay per node (box plots)</h2>\n")
	const maxBoxes = 24
	for _, f := range r.Fig8 {
		var boxes []viz.Box
		for i, b := range f.Boxes {
			if i >= maxBoxes {
				break
			}
			boxes = append(boxes, viz.Box{
				Label: f.Nodes[i],
				Min:   b.WhiskerLow, Q1: b.Q1, Median: b.Median, Q3: b.Q3, Max: b.WhiskerHigh,
			})
		}
		fmt.Fprintf(bw, "<figure>%s</figure>\n", viz.BoxPlot(boxes, viz.Options{
			Title:  fmt.Sprintf("%s — overall delay (first %d nodes by RTT)", f.Service, len(boxes)),
			YLabel: "ms", Width: 900,
		}))
		fmt.Fprintf(bw, "<p class=\"note\">%s: median of node medians %.1f ms, median node IQR %.1f ms</p>\n",
			viz.Esc(f.Service), f.MedOverallMS, f.SpreadMS)
	}
}

func (r *Report) htmlFig9(bw *bufio.Writer) {
	if len(r.Fig9) == 0 {
		return
	}
	fmt.Fprintf(bw, "<h2>Figure 9 — factoring the FE-BE fetch time</h2>\n")
	for _, f := range r.Fig9 {
		pts := viz.Series{Name: "FE sites"}
		var xmin, xmax float64
		for i, p := range f.Result.Points {
			pts.X = append(pts.X, p.Miles)
			pts.Y = append(pts.Y, p.TdynamicMS)
			if i == 0 || p.Miles < xmin {
				xmin = p.Miles
			}
			if p.Miles > xmax {
				xmax = p.Miles
			}
		}
		fit := viz.Series{
			Name: "fit",
			X:    []float64{xmin, xmax},
			Y: []float64{
				f.Result.ProcTimeMS + f.Result.SlopeMSPerMile*xmin,
				f.Result.ProcTimeMS + f.Result.SlopeMSPerMile*xmax,
			},
		}
		// Markers for the measured sites, a line for the regression:
		// render the line series first so points draw on top.
		fmt.Fprintf(bw, "<figure>%s</figure>\n", viz.Plot([]viz.Series{pts, fit}, viz.Options{
			Title:  fmt.Sprintf("%s → %s", f.Service, f.BE),
			XLabel: "FE-BE distance (miles)", YLabel: "Tdynamic (ms)", Lines: false,
		}))
		fmt.Fprintf(bw, "<p class=\"note\">%s → %s: Tdynamic = %.4f·miles + %.1f ms (R²=%.2f); intercept ≈ back-end processing time.</p>\n",
			viz.Esc(f.Service), viz.Esc(f.BE), f.Result.SlopeMSPerMile, f.Result.ProcTimeMS, f.Result.Fit.R2)
	}
}

// htmlMetrics renders the registry's quantile sketches and counters.
func htmlMetrics(bw *bufio.Writer, reg *MetricsRegistry) {
	if reg == nil {
		return
	}
	fams := reg.Families()
	var sketches, counters []*obs.Family
	for _, f := range fams {
		switch f.Kind {
		case obs.KindSketch:
			sketches = append(sketches, f)
		case obs.KindCounter:
			counters = append(counters, f)
		}
	}
	if len(sketches) > 0 {
		fmt.Fprintf(bw, "<h2>Metric quantiles (DDSketch, α=%s)</h2>\n", trimFloat(sketches[0].Alpha()))
		fmt.Fprintf(bw, "<table>\n<tr><th class=\"l\">metric</th><th class=\"l\">labels</th><th>count</th><th>p50</th><th>p90</th><th>p95</th><th>p99</th></tr>\n")
		for _, f := range sketches {
			for _, s := range f.Series() {
				sk := s.Sketch
				if sk == nil || sk.Count() == 0 {
					continue
				}
				fmt.Fprintf(bw, "<tr><td class=\"l\">%s</td><td class=\"l\">%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
					viz.Esc(f.Name), viz.Esc(labelSummary(f.LabelNames(), s.LabelValues)),
					sk.Count(),
					trimFloat(sk.Quantile(0.5)), trimFloat(sk.Quantile(0.9)),
					trimFloat(sk.Quantile(0.95)), trimFloat(sk.Quantile(0.99)))
			}
		}
		fmt.Fprintf(bw, "</table>\n")
	}
	if len(counters) > 0 {
		fmt.Fprintf(bw, "<h2>Counters</h2>\n<table>\n<tr><th class=\"l\">metric</th><th class=\"l\">labels</th><th>value</th></tr>\n")
		for _, f := range counters {
			for _, s := range f.Series() {
				if s.Counter == nil || s.Counter.Value() == 0 {
					continue
				}
				fmt.Fprintf(bw, "<tr><td class=\"l\">%s</td><td class=\"l\">%s</td><td>%s</td></tr>\n",
					viz.Esc(f.Name), viz.Esc(labelSummary(f.LabelNames(), s.LabelValues)),
					trimFloat(s.Counter.Value()))
			}
		}
		fmt.Fprintf(bw, "</table>\n")
	}
}

// htmlCritPath renders the critical-path profiler's output: the
// per-service phase-blame table and — for tail exemplars whose spans
// carry cp:* annotations — the attribution waterfall, each query's
// end-to-end time partitioned into exclusive phases. Skipped when the
// registry carries no critpath sketches (unprofiled runs).
func htmlCritPath(bw *bufio.Writer, reg *MetricsRegistry, exemplars []Exemplar) {
	if reg == nil {
		return
	}
	rows := ProfileFromMetrics(reg)
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(bw, "<h2>Critical-path attribution</h2>\n")
	fmt.Fprintf(bw, "<p class=\"note\">every sim-nanosecond of each query attributed to exactly one phase (phases sum to the end-to-end time; see docs/PROFILING.md). Share is the phase's fraction of the service's total attributed time.</p>\n")
	fmt.Fprintf(bw, "<table>\n<tr><th class=\"l\">service</th><th class=\"l\">phase</th><th>count</th><th>mean ms</th><th>p50 ms</th><th>p90 ms</th><th>p99 ms</th><th>share</th></tr>\n")
	for _, r := range rows {
		fmt.Fprintf(bw, "<tr><td class=\"l\">%s</td><td class=\"l\">%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%.2f%%</td></tr>\n",
			viz.Esc(r.Service), viz.Esc(r.Phase), r.Count,
			trimFloat(r.MeanMS), trimFloat(r.P50MS), trimFloat(r.P90MS),
			trimFloat(r.P99MS), r.SharePct)
	}
	fmt.Fprintf(bw, "</table>\n")

	// Phase waterfalls of the slowest annotated exemplars: only the
	// cp:* rows, so the flame view reads as a pure partition.
	const maxWaterfalls = 6
	shown := 0
	for _, e := range exemplars {
		if shown >= maxWaterfalls {
			break
		}
		if e.Span == nil {
			continue
		}
		var segs []viz.Interval
		base := e.Span.Start
		for _, c := range e.Span.Children {
			if c.Track != critpath.AnnotationTrack {
				continue
			}
			segs = append(segs, viz.Interval{
				Track: "critical path",
				Name:  strings.TrimPrefix(c.Name, "cp:"),
				Start: float64(c.Start-base) / float64(time.Millisecond),
				End:   float64(c.End-base) / float64(time.Millisecond),
			})
		}
		if len(segs) == 0 {
			continue
		}
		shown++
		fmt.Fprintf(bw, "<figure>%s</figure>\n", viz.Timeline(segs, viz.Options{
			Title:  fmt.Sprintf("phase waterfall — exemplar #%d (Tdynamic %.1f ms)", e.Seq, 1000*e.Value),
			XLabel: "ms since query start", Width: 900,
		}))
	}
}

// htmlRuntime renders the deterministic engine gauges — scheduler
// depth, FE/BE concurrency and queue levels — as the report's runtime
// section. Only sim-time gauges appear here: wall-clock telemetry
// (heap, GC, events/sec) lives in runtime.jsonl and the -listen
// endpoints, never in deterministic exports.
func htmlRuntime(bw *bufio.Writer, reg *MetricsRegistry) {
	if reg == nil {
		return
	}
	var gauges []*obs.Family
	for _, f := range reg.Families() {
		if f.Kind == obs.KindGauge {
			gauges = append(gauges, f)
		}
	}
	if len(gauges) == 0 {
		return
	}
	fmt.Fprintf(bw, "<h2>Engine runtime gauges</h2>\n")
	fmt.Fprintf(bw, "<p class=\"note\">deterministic engine state snapshots (value and historical max; after a shard merge each series carries the busiest cell's snapshot — gauges merge by max).</p>\n")
	fmt.Fprintf(bw, "<table>\n<tr><th class=\"l\">gauge</th><th class=\"l\">labels</th><th>value</th><th>max</th></tr>\n")
	for _, f := range gauges {
		for _, s := range f.Series() {
			if s.Gauge == nil || (s.Gauge.Value() == 0 && s.Gauge.Max() == 0) {
				continue
			}
			fmt.Fprintf(bw, "<tr><td class=\"l\">%s</td><td class=\"l\">%s</td><td>%s</td><td>%s</td></tr>\n",
				viz.Esc(f.Name), viz.Esc(labelSummary(f.LabelNames(), s.LabelValues)),
				trimFloat(s.Gauge.Value()), trimFloat(s.Gauge.Max()))
		}
	}
	fmt.Fprintf(bw, "</table>\n")
}

// htmlExemplars renders the tail-sampled span trees as timelines.
func htmlExemplars(bw *bufio.Writer, exemplars []Exemplar) {
	if len(exemplars) == 0 {
		return
	}
	fmt.Fprintf(bw, "<h2>Tail exemplars</h2>\n")
	fmt.Fprintf(bw, "<p class=\"note\">span trees retained by the tail sampler: slowest-T<sub>dynamic</sub> queries plus every inference-bound violation.</p>\n")
	const maxTimelines = 16
	shown := 0
	for _, e := range exemplars {
		if shown >= maxTimelines {
			fmt.Fprintf(bw, "<p class=\"note\">… %d more exemplars not shown</p>\n", len(exemplars)-shown)
			break
		}
		if e.Span == nil {
			continue
		}
		shown++
		title := fmt.Sprintf("exemplar #%d — Tdynamic %.1f ms", e.Seq, 1000*e.Value)
		if e.Violation {
			fmt.Fprintf(bw, "<p class=\"violation\">bound violation: Tfetch outside [Tdelta, Tdynamic]</p>\n")
		}
		fmt.Fprintf(bw, "<figure>%s</figure>\n", viz.Timeline(spanIntervals(e.Span), viz.Options{
			Title: title, XLabel: "ms since query start", Width: 900,
		}))
	}
}

// spanIntervals flattens a span tree into timeline rows, times in ms
// relative to the root's start.
func spanIntervals(root *Span) []viz.Interval {
	base := root.Start
	var out []viz.Interval
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		out = append(out, viz.Interval{
			Track: s.Track,
			Name:  s.Name,
			Start: float64(s.Start-base) / float64(time.Millisecond),
			End:   float64(s.End-base) / float64(time.Millisecond),
			Depth: depth,
		})
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return out
}

// labelSummary renders name=value pairs for metric tables.
func labelSummary(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	parts := make([]string, len(names))
	for i := range names {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		parts[i] = names[i] + "=" + v
	}
	return strings.Join(parts, ", ")
}

// trimFloat renders a float compactly but deterministically.
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4g", v)
	return s
}
