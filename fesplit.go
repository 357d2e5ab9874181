// Package fesplit reproduces the measurement study "Characterizing
// Roles of Front-end Servers in End-to-End Performance of Dynamic
// Content Distribution" (Chen, Jain, Adhikari, Zhang — IMC 2011) as a
// self-contained Go library.
//
// The original study probed the live Google and Bing search services
// from PlanetLab. This library rebuilds the full ecosystem as a
// deterministic discrete-event simulation — TCP with slow start and
// loss recovery, HTTP, front-end proxies with split TCP and static-
// prefix caching, back-end data centers with calibrated processing-time
// models, a geographically placed CDN and vantage fleet — and then runs
// the paper's own measurement pipeline on top: a query emulator,
// tcpdump-style packet capture, trace parsing, content analysis, and
// the model-based inference framework that bounds the unobservable
// FE-BE fetch time (Tdelta ≤ Tfetch ≤ Tdynamic).
//
// # Quick start
//
// ExampleStudy is the compiled quick start: NewStudy over a StudyConfig,
// one method per figure (Fig3 … Fig9, Caching), RunAllObserved for the
// whole observed matrix, and the Report writers for text, CSV and HTML.
// The types below alias the internal packages' result types so those
// signatures can be named from outside the module.
package fesplit

import (
	"io"

	"fesplit/internal/analysis"
	"fesplit/internal/baseline"
	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/obs"
	rt "fesplit/internal/obs/runtime"
	"fesplit/internal/vantage"
	"fesplit/internal/workload"
)

// Result and configuration types the Study API hands out.
type (
	// DeploymentConfig specifies a deployment to build.
	DeploymentConfig = cdn.Config
	// Dataset is the output of one experiment.
	Dataset = emulator.Dataset
	// Trace is a node's captured packet trace.
	Trace = capture.Trace
	// Params are the per-session measured parameters
	// (RTT, Tstatic, Tdynamic, Tdelta, Overall).
	Params = analysis.Params
	// NodeSummary aggregates a node's sessions.
	NodeSummary = analysis.NodeSummary
	// FactorResult decomposes the fetch time (Section 5).
	FactorResult = analysis.FactorResult
	// CacheVerdict is the caching-detection outcome (Section 3).
	CacheVerdict = analysis.CacheVerdict
	// PlacementPoint is one FE position in the placement ablation.
	PlacementPoint = baseline.PlacementPoint
	// QueryClass labels the keyword classes (popular, granular,
	// complex, mixed).
	QueryClass = workload.Class
)

// Observability: what an observed run (Study.RunAllObserved) returns
// and the exporters WritePrometheus, WriteMetricsJSONL and
// WriteSpansJSONL consume.
type (
	// MetricsRegistry holds deterministic counters, gauges and sketches.
	MetricsRegistry = obs.Registry
	// Span is one node of a per-query causal span tree.
	Span = obs.Span
	// SpanTracer holds finished span trees for the exporters.
	SpanTracer = obs.Tracer
	// Exemplar is one retained query: its Tdynamic, violation flag and
	// full span tree.
	Exemplar = obs.Exemplar
)

// NewRuntimeEngine creates a wall-clock telemetry hub (heartbeats,
// resource watermarks, HTTP endpoints — see docs/METRICS.md); attach it
// with Study.SetRuntime. It is pure observation: attaching it never
// changes a deterministic output.
func NewRuntimeEngine() *rt.Engine { return rt.NewEngine() }

// DefaultBoundTolerance is the violation slack matched to the default
// campus access profile: each client-observed bound derives from one
// captured packet carrying up to one jitter draw, so two jitter widths
// separate measurement noise from genuine model violations.
var DefaultBoundTolerance = 2 * vantage.CampusProfile().Jitter

// FastPathUsage summarizes the flow-level fast-forward engine's
// activity as recorded in a metrics registry: epochs entered by
// connections, wire bytes whose deliveries bypassed the global event
// heap, and epochs abandoned back to the packet path. After a shard
// merge the values are the busiest study cell's snapshot (gauges merge
// by max), which is what the report surfaces.
type FastPathUsage struct {
	Epochs    float64
	Bytes     float64
	Fallbacks float64
	// Per-reason fallback breakdown (fastpath_fallbacks_by_reason):
	// topology changes invalidating the resolved handler, peer teardown
	// mid-epoch, and the engine being disabled outright.
	FallbackTopology float64
	FallbackTeardown float64
	FallbackDisabled float64
	// Lane segments consumed by loss processes at send time, and the
	// mean heap-bypassing segments per epoch.
	LossDrops     float64
	EpochSegments float64
}

// FastPathUsageFrom extracts the fastpath_* gauges and the per-reason
// fallback breakdown from a registry. ok is false when the registry
// carries no fast-path gauges (nil registry: the run was not observed).
func FastPathUsageFrom(reg *MetricsRegistry) (u FastPathUsage, ok bool) {
	for _, f := range reg.Families() {
		if f.Kind != obs.KindGauge {
			continue
		}
		if f.Name == "fastpath_fallbacks_by_reason" {
			for _, s := range f.Series() {
				if s.Gauge == nil || len(s.LabelValues) == 0 {
					continue
				}
				var dst *float64
				switch s.LabelValues[0] {
				case "topology":
					dst = &u.FallbackTopology
				case "teardown":
					dst = &u.FallbackTeardown
				case "disabled":
					dst = &u.FallbackDisabled
				default:
					continue
				}
				*dst = s.Gauge.Value()
			}
			continue
		}
		var dst *float64
		switch f.Name {
		case "fastpath_epochs":
			dst = &u.Epochs
		case "fastpath_bytes":
			dst = &u.Bytes
		case "fastpath_fallbacks":
			dst = &u.Fallbacks
		case "fastpath_loss_drops":
			dst = &u.LossDrops
		case "fastpath_epoch_segments":
			dst = &u.EpochSegments
		default:
			continue
		}
		for _, s := range f.Series() {
			if s.Gauge != nil {
				*dst = s.Gauge.Value()
				ok = true
			}
		}
	}
	return u, ok
}

// WriteMetricsJSONL dumps a registry as one JSON object per series —
// lossless (unlike the Prometheus text view, sketches keep their
// buckets) and byte-deterministic.
func WriteMetricsJSONL(w io.Writer, r *MetricsRegistry) error { return obs.WriteMetricsJSONL(w, r) }

// WritePrometheus renders a registry in Prometheus text exposition
// format (sorted, deterministic).
func WritePrometheus(w io.Writer, r *MetricsRegistry) error { return obs.WritePrometheus(w, r) }

// WriteSpansJSONL renders collected spans as one JSON object per line.
func WriteSpansJSONL(w io.Writer, t *SpanTracer) error { return obs.WriteSpansJSONL(w, t) }

// GoogleLike returns the calibrated Google-style deployment config:
// sparse dedicated FEs, fast stable back-ends.
func GoogleLike(seed int64) DeploymentConfig { return cdn.GoogleLike(seed) }

// BingLike returns the calibrated Bing-style deployment config: dense
// shared CDN FEs, slower more variable back-ends.
func BingLike(seed int64) DeploymentConfig { return cdn.BingLike(seed) }
