package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fesplit"
	"fesplit/internal/obs"
)

// cmdDiff compares two profiled runs sketch-by-sketch and gates on
// regressions: exit 0 when no quantile moved past the thresholds,
// nonzero with a verdict table naming the exact series (service, phase,
// quantile) otherwise — and nonzero too when the two dumps share no
// sketch series, since a gate that compared nothing has not passed.
// Arguments are metrics.jsonl files or directories containing one (e.g.
// `fesplit study -dir` outputs).
func cmdDiff(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("diff", stderr)
	relPct := fs.Float64("rel-pct", 10,
		"relative quantile-delta breach threshold, percent of the old value")
	abs := fs.Float64("abs", 0.0005,
		"absolute quantile-delta floor in the series' native unit (seconds for *_seconds)")
	quantiles := fs.String("quantiles", "0.5,0.9,0.99",
		"comma-separated quantiles to compare per sketch series")
	family := fs.String("family", "",
		"restrict the comparison to family names with this comma-separated set of prefixes (empty → all sketch families)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: fesplit diff [flags] <old> <new> (metrics.jsonl files or run directories)")
	}
	qs, err := parseQuantiles(*quantiles)
	if err != nil {
		return err
	}
	oldReg, err := readMetricsArg(fs.Arg(0))
	if err != nil {
		return err
	}
	newReg, err := readMetricsArg(fs.Arg(1))
	if err != nil {
		return err
	}
	opt := fesplit.DiffOptions{Quantiles: qs, RelPct: *relPct, Abs: *abs}
	if *family != "" {
		opt.Families = splitNonEmpty(*family)
	}
	rep := fesplit.DiffMetrics(oldReg, newReg, opt)
	if err := rep.WriteTable(stdout); err != nil {
		return err
	}
	if rep.SeriesCompared == 0 {
		return fmt.Errorf("nothing compared: %s and %s share no sketch series (empty dump, disjoint runs or a -family filter matching nothing)",
			fs.Arg(0), fs.Arg(1))
	}
	if rep.Failed() {
		return fmt.Errorf("%d quantile regression(s) between %s and %s",
			rep.Regressions, fs.Arg(0), fs.Arg(1))
	}
	return nil
}

// readMetricsArg loads a metrics dump from a file path, or from
// <dir>/metrics.jsonl when the path is a directory.
func readMetricsArg(path string) (*fesplit.MetricsRegistry, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		path = filepath.Join(path, "metrics.jsonl")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reg, err := obs.ReadMetricsJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("diff: %s: %w", path, err)
	}
	return reg, nil
}

func parseQuantiles(s string) ([]float64, error) {
	var qs []float64
	for _, part := range splitNonEmpty(s) {
		var q float64
		if _, err := fmt.Sscanf(part, "%g", &q); err != nil || q <= 0 || q >= 1 {
			return nil, fmt.Errorf("diff: bad quantile %q (want 0 < q < 1)", part)
		}
		qs = append(qs, q)
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("diff: no quantiles given")
	}
	return qs, nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
