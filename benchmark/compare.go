package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of `compare`, one per (workload, metric).
const (
	vWorse      = "worse"
	vBetter     = "better"
	vWithin     = "within-bound"
	vUnresolved = "unresolved" // run-to-run spread wider than the bound
	vEqual      = "equal"
	vChanged    = "changed" // an exact value differs
	vSkipped    = "skipped" // exact values are only comparable at equal seeds
	vInfo       = "info"    // noisy per-layer timing: delta shown, never judged
)

type compareRow struct {
	Workload, Metric, Verdict string
	A, B                      float64
	// Delta is the relative change in the metric's bad direction:
	// positive means B is worse than A.
	Delta float64
}

func loadResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worsening is (b−a)/a signed so that positive is worse.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	rel := (b - a) / a
	if d.Better == "higher" {
		rel = -rel
	}
	return rel
}

// judge applies an end-to-end metric's bound and direction.
func judge(d metricDef, a, b summary) (string, float64) {
	delta := worsening(d, a.Value, b.Value)
	switch {
	case a.spread() > d.Bound || b.spread() > d.Bound:
		return vUnresolved, delta
	case delta > d.Bound:
		return vWorse, delta
	case delta < -d.Bound:
		return vBetter, delta
	}
	return vWithin, delta
}

// compareResults returns one row per (workload, metric) present in a.
func compareResults(a, b *resultFile) []compareRow {
	var rows []compareRow
	// exact judges a value that repeats bit for bit at a fixed seed.
	exact := func(equal bool) string {
		switch {
		case a.Seed != b.Seed:
			return vSkipped
		case !equal:
			return vChanged
		}
		return vEqual
	}
	for _, wd := range workloadDefs {
		ra, rb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			v, delta := judge(d, ra.EndToEnd[d.Name], rb.EndToEnd[d.Name])
			rows = append(rows, compareRow{wd.Name, d.Name, v, ra.EndToEnd[d.Name].Value, rb.EndToEnd[d.Name].Value, delta})
		}
		rows = append(rows, compareRow{Workload: wd.Name, Metric: "output-digest", Verdict: exact(ra.Digest == rb.Digest)})
		for _, d := range perLayer {
			if !d.on(wd.Name) {
				continue
			}
			va, vb := ra.PerLayer[d.Name], rb.PerLayer[d.Name]
			if d.Exact {
				rows = append(rows, compareRow{Workload: wd.Name, Metric: d.Name, Verdict: exact(va == vb), A: va, B: vb})
				continue
			}
			rows = append(rows, compareRow{wd.Name, d.Name, vInfo, va, vb, worsening(d, va, vb)})
		}
	}
	return rows
}

func writeCompare(w io.Writer, rows []compareRow) (worse, changed, unresolved int) {
	fmt.Fprintf(w, "%-15s %-38s %-13s %14s %14s %8s\n", "workload", "metric", "verdict", "A", "B", "worse by")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %-38s %-13s %14.6g %14.6g %+7.2f%%\n", r.Workload, r.Metric, r.Verdict, r.A, r.B, 100*r.Delta)
		switch r.Verdict {
		case vWorse:
			worse++
		case vChanged:
			changed++
		case vUnresolved:
			unresolved++
		}
	}
	fmt.Fprintf(w, "%d worse, %d exact values changed, %d unresolved\n", worse, changed, unresolved)
	return
}

// cmdCompare is `benchmark compare A.json B.json`: A is the parent, B
// the change. It fails when any bounded metric is worse or any exact
// value changed.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchmark compare A.json B.json")
	}
	a, err := loadResult(args[0])
	if err != nil {
		return err
	}
	b, err := loadResult(args[1])
	if err != nil {
		return err
	}
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.GoVersion != b.Env.GoVersion || a.Seconds != b.Seconds {
		fmt.Printf("note: environments differ (A: %s, %s, %gs; B: %s, %s, %gs) — host-time metrics are not like for like\n",
			a.Env.CPUModel, a.Env.GoVersion, a.Seconds, b.Env.CPUModel, b.Env.GoVersion, b.Seconds)
	}
	worse, changed, _ := writeCompare(os.Stdout, compareResults(a, b))
	if worse+changed > 0 {
		return fmt.Errorf("%d metric(s) worse, %d exact value(s) changed", worse, changed)
	}
	return nil
}
