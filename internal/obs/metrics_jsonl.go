package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"fesplit/internal/stats"
)

// WriteMetricsJSONL dumps every labeled series of the registry as one
// JSON object per line: greppable, streamable, and — unlike the
// Prometheus text format — lossless, carrying gauge high-water marks
// and full sketch state so ReadMetricsJSONL reconstructs an
// equivalent registry (and merged fleet views can be built offline).
// Families are walked in sorted name order and series in sorted
// label-value order with a fixed field order, so same-seed runs export
// byte-identical files.
func WriteMetricsJSONL(w io.Writer, r *Registry) error {
	bw := &errWriter{w: w}
	for _, f := range r.Families() {
		for _, s := range f.Series() {
			bw.printf(`{"name":%s,"kind":%s,"help":%s`,
				jstr(f.Name), jstr(f.Kind.String()), jstr(f.Help))
			if len(s.LabelNames) > 0 {
				bw.printf(`,"label_names":%s,"label_values":%s`,
					jstrs(s.LabelNames), jstrs(s.LabelValues))
			}
			switch f.Kind {
			case KindCounter:
				bw.printf(`,"value":%s`, fmtFloat(s.Counter.Value()))
			case KindGauge:
				bw.printf(`,"value":%s,"max":%s`,
					fmtFloat(s.Gauge.Value()), fmtFloat(s.Gauge.Max()))
			case KindSketch:
				sk := s.Sketch.Underlying()
				bw.printf(`,"alpha":%s,"zero":%d,"sum":%s,"min":%s,"max":%s`,
					fmtFloat(sk.Alpha()), sk.ZeroCount(), fmtFloat(sk.Sum()),
					fmtFloat(sk.Min()), fmtFloat(sk.Max()))
				bw.printf(`,"bucket_idx":[`)
				buckets := sk.Buckets()
				for i, b := range buckets {
					if i > 0 {
						bw.printf(",")
					}
					bw.printf("%d", b.Index)
				}
				bw.printf(`],"bucket_n":[`)
				for i, b := range buckets {
					if i > 0 {
						bw.printf(",")
					}
					bw.printf("%d", b.Count)
				}
				bw.printf(`]`)
			}
			bw.printf("}\n")
		}
	}
	return bw.err
}

// jstrs JSON-encodes a string slice.
func jstrs(ss []string) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, s := range ss {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(jstr(s))
	}
	b.WriteByte(']')
	return b.String()
}

// metricLine mirrors one WriteMetricsJSONL line for decoding.
type metricLine struct {
	Name        string   `json:"name"`
	Kind        string   `json:"kind"`
	Help        string   `json:"help"`
	LabelNames  []string `json:"label_names"`
	LabelValues []string `json:"label_values"`
	Value       float64  `json:"value"`
	Max         float64  `json:"max"`
	Sum         float64  `json:"sum"`
	Alpha       float64  `json:"alpha"`
	Zero        uint64   `json:"zero"`
	Min         float64  `json:"min"`
	BucketIdx   []int    `json:"bucket_idx"`
	BucketN     []uint64 `json:"bucket_n"`
}

// ReadMetricsJSONL parses a WriteMetricsJSONL dump back into a
// registry whose export is equivalent to the original's — the
// round-trip property the JSONL fuzz test pins down. Inconsistent
// input (e.g. one name under two kinds) returns an error rather than
// propagating the registry's schema panic.
func ReadMetricsJSONL(rd io.Reader) (_ *Registry, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("obs: metrics jsonl: inconsistent series: %v", p)
		}
	}()
	reg := NewRegistry()
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var m metricLine
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			return nil, fmt.Errorf("obs: metrics jsonl line %d: %w", lineNo, err)
		}
		if len(m.LabelNames) != len(m.LabelValues) {
			return nil, fmt.Errorf("obs: metrics jsonl line %d: %d label names vs %d values",
				lineNo, len(m.LabelNames), len(m.LabelValues))
		}
		switch m.Kind {
		case "counter":
			c := reg.CounterVec(m.Name, m.Help, m.LabelNames...).With(m.LabelValues...)
			c.Add(m.Value)
			if math.IsInf(c.Value(), 0) {
				return nil, fmt.Errorf("obs: metrics jsonl line %d: counter %q overflows", lineNo, m.Name)
			}
		case "gauge":
			g := reg.GaugeVec(m.Name, m.Help, m.LabelNames...).With(m.LabelValues...)
			g.Set(m.Max) // raise the high-water mark first
			g.Set(m.Value)
		case "summary":
			if len(m.BucketIdx) != len(m.BucketN) {
				return nil, fmt.Errorf("obs: metrics jsonl line %d: %d bucket indices vs %d counts",
					lineNo, len(m.BucketIdx), len(m.BucketN))
			}
			buckets := make([]stats.Bucket, len(m.BucketIdx))
			for i := range m.BucketIdx {
				if i > 0 && m.BucketIdx[i] <= m.BucketIdx[i-1] {
					return nil, fmt.Errorf("obs: metrics jsonl line %d: bucket indices not ascending", lineNo)
				}
				buckets[i] = stats.Bucket{Index: m.BucketIdx[i], Count: m.BucketN[i]}
			}
			sk := reg.SketchVec(m.Name, m.Help, m.Alpha, m.LabelNames...).With(m.LabelValues...)
			sk.sk = stats.RestoreSketch(m.Alpha, m.Zero, m.Sum, m.Min, m.Max, buckets)
		default:
			return nil, fmt.Errorf("obs: metrics jsonl line %d: unknown kind %q", lineNo, m.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: metrics jsonl: %w", err)
	}
	return reg, nil
}
