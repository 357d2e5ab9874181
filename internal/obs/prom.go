package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one # HELP / # TYPE header per
// family, then its series. Families are sorted by name and series by
// label values, and floats use shortest-round-trip formatting, so the
// output is byte-identical across runs with the same seed — the
// determinism tests diff it directly.
func WritePrometheus(w io.Writer, r *Registry) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, f := range r.Families() {
		line = line[:0]
		if f.Help != "" {
			line = append(append(append(append(line, "# HELP "...), f.Name...), ' '), f.Help...)
			line = append(line, '\n')
		}
		line = append(append(append(append(line, "# TYPE "...), f.Name...), ' '), f.Kind.String()...)
		line = append(line, '\n')
		for _, s := range f.Series() {
			switch f.Kind {
			case KindCounter:
				line = appendFloat(appendSample(line, f.Name, "", s, -1), s.Counter.Value())
			case KindGauge:
				line = appendFloat(appendSample(line, f.Name, "", s, -1), s.Gauge.Value())
			case KindSketch:
				sk := s.Sketch
				for _, q := range SummaryQuantiles() {
					line = appendFloat(appendSample(line, f.Name, "", s, q), sk.Quantile(q))
					line = append(line, '\n')
				}
				line = appendFloat(appendSample(line, f.Name, "_sum", s, -1), sk.Sum())
				line = append(line, '\n')
				line = strconv.AppendUint(appendSample(line, f.Name, "_count", s, -1), sk.Count(), 10)
			}
			line = append(line, '\n')
		}
		_, _ = bw.Write(line) // a bufio.Writer keeps its first error for Flush
	}
	return bw.Flush()
}

// SummaryQuantiles are the fixed quantiles sketch families expose in
// the Prometheus text format (the full sketch is available via the
// JSONL export).
func SummaryQuantiles() []float64 { return []float64{0.5, 0.9, 0.95, 0.99} }

// appendSample appends a sample's name, its suffix and {k="v",...},
// with a summary quantile label when q ≥ 0, then the space before the
// value. Empty label sets render as nothing.
func appendSample(b []byte, name, suffix string, s SeriesView, q float64) []byte {
	b = append(append(b, name...), suffix...)
	if len(s.LabelNames) == 0 && q < 0 {
		return append(b, ' ')
	}
	b = append(b, '{')
	for i, n := range s.LabelNames {
		b = append(append(append(append(b, n...), `="`...), escapeLabel(s.LabelValues[i])...), `",`...)
	}
	if q >= 0 {
		b = append(appendFloat(append(b, `quantile="`...), q), `",`...)
	}
	b[len(b)-1] = '}' // the last label's comma
	return append(b, ' ')
}

// escapeLabel escapes backslash, double quote and newline per the
// exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// appendFloat appends a float the way Prometheus clients render it:
// the shortest representation that round-trips.
func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }
