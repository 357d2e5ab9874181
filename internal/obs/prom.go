package obs

import (
	"fmt"
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
	for _, f := range r.Families() {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Series() {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *Family, s SeriesView) error {
	switch f.Kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %s\n",
			f.Name, labelString(s.LabelNames, s.LabelValues, ""), fmtFloat(s.Counter.Value()))
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n",
			f.Name, labelString(s.LabelNames, s.LabelValues, ""), fmtFloat(s.Gauge.Value()))
		return err
	case KindSketch:
		sk := s.Sketch
		for _, q := range SummaryQuantiles() {
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				f.Name, labelString(s.LabelNames, s.LabelValues, fmtFloat(q)),
				fmtFloat(sk.Quantile(q))); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
			f.Name, labelString(s.LabelNames, s.LabelValues, ""), fmtFloat(sk.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n",
			f.Name, labelString(s.LabelNames, s.LabelValues, ""), sk.Count())
		return err
	}
	return nil
}

// SummaryQuantiles are the fixed quantiles sketch families expose in
// the Prometheus text format (the full sketch is available via the
// JSONL export).
func SummaryQuantiles() []float64 { return []float64{0.5, 0.9, 0.95, 0.99} }

// labelString renders {k="v",...}, appending a summary quantile label
// when non-empty. Empty label sets render as "".
func labelString(names, values []string, quantile string) string {
	if len(names) == 0 && quantile == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if quantile != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`quantile="`)
		b.WriteString(quantile)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes backslash, double quote and newline per the
// exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// fmtFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
