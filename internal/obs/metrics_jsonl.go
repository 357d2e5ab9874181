package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
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
	bw := bufio.NewWriter(w)
	var line []byte
	for _, f := range r.Families() {
		for _, s := range f.Series() {
			line = appendJSONString(append(line[:0], `{"name":`...), f.Name)
			line = appendJSONString(append(line, `,"kind":`...), f.Kind.String())
			line = appendJSONString(append(line, `,"help":`...), f.Help)
			if len(s.LabelNames) > 0 {
				line = appendJSONStrings(append(line, `,"label_names":`...), s.LabelNames)
				line = appendJSONStrings(append(line, `,"label_values":`...), s.LabelValues)
			}
			switch f.Kind {
			case KindCounter:
				line = appendFloat(append(line, `,"value":`...), s.Counter.Value())
			case KindGauge:
				line = appendFloat(append(line, `,"value":`...), s.Gauge.Value())
				line = appendFloat(append(line, `,"max":`...), s.Gauge.Max())
			case KindSketch:
				sk := s.Sketch.Underlying()
				line = appendFloat(append(line, `,"alpha":`...), sk.Alpha())
				line = strconv.AppendUint(append(line, `,"zero":`...), sk.ZeroCount(), 10)
				line = appendFloat(append(line, `,"sum":`...), sk.Sum())
				line = appendFloat(append(line, `,"min":`...), sk.Min())
				line = appendFloat(append(line, `,"max":`...), sk.Max())
				buckets := sk.Buckets()
				line = append(line, `,"bucket_idx":[`...)
				for i, b := range buckets {
					if i > 0 {
						line = append(line, ',')
					}
					line = strconv.AppendInt(line, int64(b.Index), 10)
				}
				line = append(line, `],"bucket_n":[`...)
				for i, b := range buckets {
					if i > 0 {
						line = append(line, ',')
					}
					line = strconv.AppendUint(line, b.Count, 10)
				}
				line = append(line, ']')
			}
			line = append(line, "}\n"...)
			_, _ = bw.Write(line) // a bufio.Writer keeps its first error for Flush
		}
	}
	return bw.Flush()
}

// appendJSONStrings appends a JSON array of strings.
func appendJSONStrings(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s)
	}
	return append(b, ']')
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

// restoreSlotsPerByte bounds the summed bucket spans (8 B of store each)
// of a dump's sketches per byte read, beyond stats.MaxRestoreSpan; study
// dumps read at most 0.16.
const restoreSlotsPerByte = 8

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
	sc.Buffer(nil, 1<<20) // grows from 4 KiB as long lines need
	lineNo := 0
	var read, slots uint64 // bytes read, sketch store slots restored
	for sc.Scan() {
		lineNo++
		read += uint64(len(sc.Bytes())) + 1
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
				buckets[i] = stats.Bucket{Index: m.BucketIdx[i], Count: m.BucketN[i]}
			}
			restored, err := stats.RestoreSketch(m.Alpha, m.Zero, m.Sum, m.Min, m.Max, buckets)
			if err != nil {
				return nil, fmt.Errorf("obs: metrics jsonl line %d: %w", lineNo, err)
			}
			if n := len(buckets); n > 0 { // ascending, in range: RestoreSketch checked
				slots += uint64(buckets[n-1].Index-buckets[0].Index) + 1
				if slots > max(stats.MaxRestoreSpan, restoreSlotsPerByte*read) {
					return nil, fmt.Errorf("obs: metrics jsonl line %d: sketch stores span %d buckets in %d bytes", lineNo, slots, read)
				}
			}
			reg.SketchVec(m.Name, m.Help, m.Alpha, m.LabelNames...).With(m.LabelValues...).sk = restored
		default:
			return nil, fmt.Errorf("obs: metrics jsonl line %d: unknown kind %q", lineNo, m.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: metrics jsonl: %w", err)
	}
	return reg, nil
}
