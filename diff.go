package fesplit

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"fesplit/internal/obs"
)

// DiffOptions tune the cross-run regression comparison.
type DiffOptions struct {
	// Quantiles to compare per sketch series (default 0.5, 0.9, 0.99).
	Quantiles []float64
	// RelPct is the relative-delta breach threshold in percent
	// (default 10): a quantile must move by more than this fraction of
	// the old value to count.
	RelPct float64
	// Abs is the absolute-delta floor in the series' native unit
	// (seconds for *_seconds families; default 500µs = 0.0005). Both
	// thresholds must be exceeded, so microscopic tails on tiny phases
	// don't fail the gate; against an old value of exactly 0 (the
	// critical-path families observe zeros by design) no relative move
	// exists and the floor alone decides.
	Abs float64
	// Families restricts the comparison to family names with one of
	// these prefixes (empty → every sketch family present in both runs).
	Families []string
}

func (o DiffOptions) withDefaults() DiffOptions {
	if len(o.Quantiles) == 0 {
		o.Quantiles = []float64{0.5, 0.9, 0.99}
	}
	if o.RelPct <= 0 {
		o.RelPct = 10
	}
	if o.Abs <= 0 {
		o.Abs = 0.0005
	}
	return o
}

// DiffRow is one breached quantile: a series whose value moved past
// both thresholds between the two runs.
type DiffRow struct {
	Family   string
	Labels   string // "name=value ..." in label order
	Quantile float64
	Old, New float64
	// DeltaPct is the relative move in percent of the old value (±Inf
	// when the old value is 0).
	DeltaPct float64
	// Regression is true when the new value is larger (slower).
	Regression bool
}

// DiffReport is the outcome of comparing two runs' metrics dumps.
type DiffReport struct {
	Rows           []DiffRow // breaches only, deterministic order
	SeriesCompared int
	Regressions    int
	Improvements   int
	// OnlyOld / OnlyNew name sketch series present in just one run
	// (informational; schema drift is not a perf regression).
	OnlyOld, OnlyNew []string
}

// Failed reports whether the diff should gate: any regression breach,
// or nothing compared at all — an empty dump, two runs sharing no
// sketch series or a family filter matching nothing has not passed.
func (r *DiffReport) Failed() bool { return r.Regressions > 0 || r.SeriesCompared == 0 }

type diffSeries struct {
	family string
	labels string
	sk     *obs.Sketch
}

func collectSketches(reg *MetricsRegistry, families []string) map[string]diffSeries {
	out := map[string]diffSeries{}
	for _, f := range reg.Families() {
		if f.Kind != obs.KindSketch {
			continue
		}
		if len(families) > 0 {
			ok := false
			for _, p := range families {
				if strings.HasPrefix(f.Name, p) {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		}
		names := f.LabelNames()
		for _, s := range f.Series() {
			if s.Sketch == nil || s.Sketch.Count() == 0 {
				continue
			}
			parts := make([]string, len(names))
			for i, n := range names {
				parts[i] = n + "=" + s.LabelValues[i]
			}
			labels := strings.Join(parts, " ")
			out[f.Name+"|"+labels] = diffSeries{family: f.Name, labels: labels, sk: s.Sketch}
		}
	}
	return out
}

// DiffMetrics compares two metrics registries (as re-read from
// metrics.jsonl dumps) sketch by sketch at the configured quantiles.
// Identical registries — e.g. two same-seed runs — produce zero rows;
// a run with a genuine latency shift produces regression rows naming
// the exact family, labels (service, phase, …) and quantile that moved.
func DiffMetrics(oldReg, newReg *MetricsRegistry, opt DiffOptions) *DiffReport {
	opt = opt.withDefaults()
	oldS := collectSketches(oldReg, opt.Families)
	newS := collectSketches(newReg, opt.Families)

	keys := make([]string, 0, len(oldS))
	rep := &DiffReport{}
	for k, s := range oldS {
		if _, ok := newS[k]; ok {
			keys = append(keys, k)
		} else {
			rep.OnlyOld = append(rep.OnlyOld, s.family+"{"+s.labels+"}")
		}
	}
	sort.Strings(keys)
	for k, s := range newS {
		if _, ok := oldS[k]; !ok {
			rep.OnlyNew = append(rep.OnlyNew, s.family+"{"+s.labels+"}")
		}
	}
	sort.Strings(rep.OnlyOld)
	sort.Strings(rep.OnlyNew)

	for _, k := range keys {
		o, n := oldS[k], newS[k]
		rep.SeriesCompared++
		for _, q := range opt.Quantiles {
			ov, nv := o.sk.Quantile(q), n.sk.Quantile(q)
			delta := nv - ov
			abs := delta
			if abs < 0 {
				abs = -abs
			}
			if abs <= opt.Abs {
				continue
			}
			base := ov
			if base < 0 {
				base = -base
			}
			if base != 0 && abs/base*100 <= opt.RelPct {
				continue
			}
			row := DiffRow{
				Family: o.family, Labels: o.labels, Quantile: q,
				Old: ov, New: nv,
				DeltaPct:   delta / base * 100,
				Regression: delta > 0,
			}
			rep.Rows = append(rep.Rows, row)
			if row.Regression {
				rep.Regressions++
			} else {
				rep.Improvements++
			}
		}
	}
	return rep
}

// WriteTable renders the verdict table: one line per breached quantile,
// then the summary verdict. The output is deterministic (rows are in
// sorted series order, quantiles ascending).
func (r *DiffReport) WriteTable(w io.Writer) error {
	if len(r.Rows) > 0 {
		if _, err := fmt.Fprintf(w, "%-10s %-28s %-40s %12s %12s %9s\n",
			"verdict", "family", "labels", "old", "new", "delta"); err != nil {
			return err
		}
		for _, row := range r.Rows {
			verdict := "IMPROVED"
			if row.Regression {
				verdict = "REGRESSED"
			}
			delta := fmt.Sprintf("%+8.1f%%", row.DeltaPct)
			if math.IsInf(row.DeltaPct, 0) {
				delta = "new" // moved off an old value of 0
			}
			if _, err := fmt.Fprintf(w, "%-10s %-28s %-40s %12.6f %12.6f %9s\n",
				verdict,
				fmt.Sprintf("%s p%g", row.Family, row.Quantile*100),
				row.Labels, row.Old, row.New, delta); err != nil {
				return err
			}
		}
	}
	for _, s := range r.OnlyOld {
		if _, err := fmt.Fprintf(w, "note: series only in old run: %s\n", s); err != nil {
			return err
		}
	}
	for _, s := range r.OnlyNew {
		if _, err := fmt.Fprintf(w, "note: series only in new run: %s\n", s); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "diff: %d series compared, %d regressions, %d improvements\n",
		r.SeriesCompared, r.Regressions, r.Improvements)
	return err
}
