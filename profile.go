package fesplit

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"fesplit/internal/obs/critpath"
)

// PhaseBlame is one row of the critical-path profile: how much of a
// service's end-to-end query time one exclusive phase is to blame for.
// All durations are milliseconds; SharePct is the phase's share of the
// service's total attributed time.
type PhaseBlame struct {
	Service  string
	Phase    string
	Count    uint64
	TotalMS  float64
	MeanMS   float64
	P50MS    float64
	P90MS    float64
	P99MS    float64
	SharePct float64
}

// critPhaseFamily is the sketch family the critical-path profiler
// folds attributions into (see internal/analysis.CritObserver).
const critPhaseFamily = "critpath_phase_seconds"

// phaseRank orders phases causally (the order they occur on the
// critical path) for display; unknown labels sort last, by name.
func phaseRank(name string) int {
	for i := 0; i < critpath.NumPhases; i++ {
		if critpath.Phase(i).String() == name {
			return i
		}
	}
	return critpath.NumPhases
}

// ProfileFromMetrics extracts the per-(service, phase) blame table from
// a registry's critpath_phase_seconds sketches. Rows are sorted by
// service, then descending total blame (ties broken by causal phase
// order), so the table reads "where did this service's time go" top
// down. Registries without critical-path data return no rows.
func ProfileFromMetrics(reg *MetricsRegistry) []PhaseBlame {
	var rows []PhaseBlame
	totals := map[string]float64{}
	for _, f := range reg.Families() {
		if f.Name != critPhaseFamily {
			continue
		}
		for _, s := range f.Series() {
			if s.Sketch == nil || s.Sketch.Count() == 0 || len(s.LabelValues) < 2 {
				continue
			}
			svc, phase := s.LabelValues[0], s.LabelValues[1]
			sum := s.Sketch.Sum()
			rows = append(rows, PhaseBlame{
				Service: svc,
				Phase:   phase,
				Count:   s.Sketch.Count(),
				TotalMS: sum * 1e3,
				MeanMS:  s.Sketch.Mean() * 1e3,
				P50MS:   s.Sketch.Quantile(0.5) * 1e3,
				P90MS:   s.Sketch.Quantile(0.9) * 1e3,
				P99MS:   s.Sketch.Quantile(0.99) * 1e3,
			})
			totals[svc] += sum
		}
	}
	for i := range rows {
		if t := totals[rows[i].Service]; t > 0 {
			rows[i].SharePct = rows[i].TotalMS / (t * 1e3) * 100
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		if a.TotalMS != b.TotalMS {
			return a.TotalMS > b.TotalMS
		}
		return phaseRank(a.Phase) < phaseRank(b.Phase)
	})
	return rows
}

// WriteProfileCSV writes the blame table as CSV (one row per
// service×phase, durations in milliseconds).
func WriteProfileCSV(w io.Writer, rows []PhaseBlame) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"service", "phase", "count",
		"total_ms", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "share_pct",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	for _, r := range rows {
		if err := cw.Write([]string{
			r.Service, r.Phase, strconv.FormatUint(r.Count, 10),
			f(r.TotalMS), f(r.MeanMS), f(r.P50MS), f(r.P90MS), f(r.P99MS),
			strconv.FormatFloat(r.SharePct, 'f', 2, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteProfileTable renders the top-N blame rows per service as an
// aligned text table (the `fesplit study` stderr summary). topN ≤ 0
// prints every phase.
func WriteProfileTable(w io.Writer, rows []PhaseBlame, topN int) error {
	if len(rows) == 0 {
		_, err := fmt.Fprintln(w, "no critical-path data (run an observed study first)")
		return err
	}
	service, printed := "", 0
	for _, r := range rows {
		if r.Service != service {
			service, printed = r.Service, 0
			if _, err := fmt.Fprintf(w, "%s — critical-path blame (share of attributed time)\n", service); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "  %-18s %8s %9s %9s %9s %9s %7s\n",
				"phase", "count", "mean ms", "p50 ms", "p90 ms", "p99 ms", "share"); err != nil {
				return err
			}
		}
		if topN > 0 && printed >= topN {
			continue
		}
		printed++
		if _, err := fmt.Fprintf(w, "  %-18s %8d %9.3f %9.3f %9.3f %9.3f %6.2f%%\n",
			r.Phase, r.Count, r.MeanMS, r.P50MS, r.P90MS, r.P99MS, r.SharePct); err != nil {
			return err
		}
	}
	return nil
}
