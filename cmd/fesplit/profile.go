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

// cmdProfile runs the observed study and reports where each service's
// query time goes: the per-phase critical-path blame table (stderr +
// profile.csv), the lossless metrics dump that `fesplit diff` consumes,
// annotated tail-exemplar spans, and the HTML report with the phase
// waterfalls. Like `fesplit study`, every exported byte is identical
// for any -workers value and across repeated same-seed runs.
func cmdProfile(args []string, _, stderr io.Writer) error {
	fs := newFlagSet("profile", stderr)
	parse := studyFlags(fs, true)
	dir := fs.String("dir", "profile-out", "output directory for the exported files")
	topN := fs.Int("top", 5, "phases to print per service in the stderr blame table (0 → all)")
	beSlowdown := fs.Float64("be-slowdown", 0,
		"scale both services' BE processing cost by this factor (>0; a controlled regression injection for exercising `fesplit diff`)")
	cfg, err := parse(args)
	if err != nil {
		return err
	}
	cfg.BESlowdown = *beSlowdown
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	var rows []fesplit.PhaseBlame
	_, err = runObserved(stderr, fesplit.NewStudy(cfg).RunAllObserved, nil, "", *dir, func(out *fesplit.StudyOutput) []outFile {
		rows = fesplit.ProfileFromMetrics(out.Metrics)
		spans := out.Spans()
		return []outFile{
			{"profile.csv", func(f *os.File) error { return fesplit.WriteProfileCSV(f, rows) }},
			{"metrics.jsonl", func(f *os.File) error { return fesplit.WriteMetricsJSONL(f, out.Metrics) }},
			{"spans.jsonl", func(f *os.File) error { return fesplit.WriteSpansJSONL(f, spans) }},
			htmlReport("report.html", out),
		}
	})
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	if err := fesplit.WriteProfileTable(stderr, rows, *topN); err != nil {
		return err
	}
	if *beSlowdown > 0 && *beSlowdown != 1 {
		fmt.Fprintf(stderr, "profile: BE cost model scaled ×%g (injected regression)\n", *beSlowdown)
	}
	fmt.Fprintf(stderr, "profile: blame table + metrics + report written to %s\n", *dir)
	return nil
}

// cmdDiff compares two profiled runs sketch-by-sketch and gates on
// regressions: exit 0 when no quantile moved past the thresholds,
// nonzero with a verdict table naming the exact series (service, phase,
// quantile) otherwise — and nonzero too when the two dumps share no
// sketch series, since a gate that compared nothing has not passed.
// Arguments are metrics.jsonl files or directories containing one (e.g.
// `fesplit profile -dir` outputs).
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
