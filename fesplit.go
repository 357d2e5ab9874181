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
	"fesplit/internal/obs"
	rt "fesplit/internal/obs/runtime"
	"fesplit/internal/vantage"
	"fesplit/internal/workload"
)

// Result and configuration types the Study API hands out.
type (
	// DeploymentConfig specifies a deployment to build.
	DeploymentConfig = cdn.Config
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
