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
//	study := fesplit.NewStudy(fesplit.LightStudyConfig(42))
//	fig5, err := study.Fig5()   // fixed-FE parameter extraction
//	fig9, err := study.Fig9()   // fetch-time factoring regression
//	study.WriteReport(os.Stdout)
//
// Lower-level building blocks are exposed through aliases: build a
// Deployment, drive it with a Runner, and analyze the datasets by hand
// for custom experiments.
package fesplit

import (
	"io"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/baseline"
	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/core"
	"fesplit/internal/emulator"
	"fesplit/internal/frontend"
	"fesplit/internal/geo"
	"fesplit/internal/obs"
	rt "fesplit/internal/obs/runtime"
	"fesplit/internal/stats"
	"fesplit/internal/tcpsim"
	"fesplit/internal/trace"
	"fesplit/internal/vantage"
	"fesplit/internal/workload"
)

// Deployment building blocks.
type (
	// Deployment is a built service: FE fleet, BE sites and network.
	Deployment = cdn.Deployment
	// DeploymentConfig specifies a deployment to build.
	DeploymentConfig = cdn.Config
	// FrontEnd is one front-end (proxy) server.
	FrontEnd = frontend.Server
	// Fleet is the set of measurement vantage points.
	Fleet = vantage.Fleet
	// Site is a named geographic location.
	Site = geo.Site
	// Point is a geographic coordinate.
	Point = geo.Point
)

// Measurement pipeline.
type (
	// Runner drives a vantage fleet against a deployment.
	Runner = emulator.Runner
	// RunnerOptions configures a Runner.
	RunnerOptions = emulator.Options
	// ExperimentAOptions parameterize the default-FE experiment.
	ExperimentAOptions = emulator.AOptions
	// ExperimentBOptions parameterize the fixed-FE experiment.
	ExperimentBOptions = emulator.BOptions
	// Dataset is the output of one experiment.
	Dataset = emulator.Dataset
	// Record is one completed query.
	Record = emulator.Record
	// Trace is a node's captured packet trace.
	Trace = capture.Trace
	// Session is a parsed per-query packet timeline.
	Session = trace.Session
	// Params are the per-session measured parameters
	// (RTT, Tstatic, Tdynamic, Tdelta, Overall).
	Params = analysis.Params
	// NodeSummary aggregates a node's sessions.
	NodeSummary = analysis.NodeSummary
	// FactorResult decomposes the fetch time (Section 5).
	FactorResult = analysis.FactorResult
	// CacheVerdict is the caching-detection outcome (Section 3).
	CacheVerdict = analysis.CacheVerdict
	// ModelInputs feed the analytic timeline predictor.
	ModelInputs = core.Inputs
	// ModelPrediction is the predicted Figure-2 timeline.
	ModelPrediction = core.Prediction
	// PlacementPoint is one FE position in the placement ablation.
	PlacementPoint = baseline.PlacementPoint
	// QueryClass labels the keyword classes (popular, granular,
	// complex, mixed).
	QueryClass = workload.Class
	// TCPConfig tunes a simulated TCP endpoint (MSS, initial window,
	// delayed ACKs, RTO bounds).
	TCPConfig = tcpsim.Config
)

// Observability. Pass an Observer via RunnerOptions.Obs to collect
// sim-time metrics and the FE's ground truth per query, fold the
// records through a RecordFold for span trees and tail exemplars, and
// export with WritePrometheus, WriteChromeTrace and WriteSpansJSONL.
type (
	// Observer bundles a metrics registry and a tail sampler.
	Observer = obs.Observer
	// MetricsRegistry holds deterministic counters/gauges/histograms.
	MetricsRegistry = obs.Registry
	// Span is one node of a per-query causal span tree.
	Span = obs.Span
	// SpanTracer holds finished span trees for the exporters.
	SpanTracer = obs.Tracer
	// TailConfig parameterizes tail-based exemplar sampling.
	TailConfig = obs.TailConfig
	// TailSampler retains span trees only for tail-latency queries and
	// inference-bound violations.
	TailSampler = obs.TailSampler
	// Exemplar is one retained query: its Tdynamic, violation flag and
	// full span tree.
	Exemplar = obs.Exemplar
)

// Engine runtime telemetry — wall-clock visibility into a running
// study (heartbeats, resource watermarks, HTTP endpoints). Everything
// here is pure observation: attaching it never changes a deterministic
// output. See docs/METRICS.md.
type (
	// RuntimeEngine is the lock-free hub simulators, the fast-path
	// engine and shard pools publish into.
	RuntimeEngine = rt.Engine
	// RuntimeSnapshot is one point-in-time reading of the hub plus Go
	// runtime stats (heap, GC, goroutines).
	RuntimeSnapshot = rt.Snapshot
	// RuntimeSampler periodically snapshots an engine and fans the
	// snapshots out to consumers.
	RuntimeSampler = rt.Sampler
	// RuntimeConsumer receives sampled snapshots.
	RuntimeConsumer = rt.Consumer
	// RuntimeServer serves /metrics, /progress and /debug/pprof for a
	// running engine.
	RuntimeServer = rt.Server
)

// NewRuntimeEngine creates a telemetry hub; attach it with
// Study.SetRuntime or RunnerOptions.Runtime.
func NewRuntimeEngine() *RuntimeEngine { return rt.NewEngine() }

// NewRuntimeSampler creates a wall-clock sampler over an engine
// (interval ≤ 0 → one second) feeding the given consumers.
func NewRuntimeSampler(e *RuntimeEngine, interval time.Duration, consumers ...RuntimeConsumer) *RuntimeSampler {
	return rt.NewSampler(e, interval, consumers...)
}

// RuntimeHeartbeat returns a consumer printing one human heartbeat
// line per sample (the `fesplit study -progress` stderr format).
func RuntimeHeartbeat(w io.Writer) RuntimeConsumer { return rt.Heartbeat(w) }

// RuntimeJSONL returns a consumer appending one JSON snapshot per
// sample (the runtime.jsonl format).
func RuntimeJSONL(w io.Writer) RuntimeConsumer { return rt.JSONL(w) }

// NewRuntimeServer starts an HTTP listener on addr exposing the
// engine's /metrics (Prometheus), /progress (JSON) and /debug/pprof.
func NewRuntimeServer(e *RuntimeEngine, addr string) (*RuntimeServer, error) {
	return rt.NewServer(e, addr)
}

// NewTailObserver creates an observer with a registry and a tail-based
// exemplar sampler.
func NewTailObserver(cfg TailConfig) *Observer { return obs.NewTailObserver(cfg) }

// NewMetricsRegistry returns an empty deterministic metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ObserveSessionParams feeds measured per-session parameters into the
// registry's dimensional quantile sketches, labeled by service and
// phase (rtt, tstatic, tdynamic, tdelta, overall).
func ObserveSessionParams(reg *MetricsRegistry, service string, params []Params) {
	analysis.ObserveParams(reg, service, params)
}

// RecordFold is the one measuring pass over finished records: a single
// trace parse per record feeding, in order, the phase sketches, the
// session parameters it returns, the span tree, the critical-path
// attribution (cp:* waterfall annotations) and the tail offer. See
// docs/PROFILING.md.
type RecordFold = analysis.Fold

// NewRecordFold builds a fold measuring against a content boundary
// (BoundaryFromDataset). reg receives the phase families labeled by
// service and the critical-path families labeled by label; ts is offered
// every measurable record's span tree, flagged when the ground-truth
// fetch time violates Tdelta ≤ Tfetch ≤ Tdynamic by more than tol
// (DefaultBoundTolerance suits the built-in campus access profile).
// Either may be nil.
func NewRecordFold(reg *MetricsRegistry, service, label string, boundary int, ts *TailSampler, tol time.Duration) *RecordFold {
	return analysis.NewFold(reg, service, label, boundary, ts, tol)
}

// DefaultBoundTolerance is the violation slack matched to the default
// campus access profile: each client-observed bound derives from one
// captured packet carrying up to one jitter draw, so two jitter widths
// separate measurement noise from genuine model violations.
var DefaultBoundTolerance = 2 * vantage.CampusProfile().Jitter

// MergeTailSamplers joins per-shard tail samplers into one whose
// selection threshold reflects the merged (fleet-wide) value
// distribution; exemplars are re-ranked across the union. Pass shards
// in canonical order.
func MergeTailSamplers(shards ...*TailSampler) *TailSampler {
	return obs.MergeTailSamplers(shards...)
}

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
	// loss blackouts refusing the lane outright, topology changes
	// invalidating the resolved handler, peer teardown mid-epoch, the
	// engine being disabled outright, and loss-recovery suspensions
	// (a lane segment was consumed by the loss process; the epoch
	// resumes once the retransmission is cumulatively ACKed).
	// HasReasons is false on dumps predating the breakdown.
	FallbackLoss         float64
	FallbackTopology     float64
	FallbackTeardown     float64
	FallbackDisabled     float64
	FallbackLossRecovery float64
	HasReasons           bool
	// Lossy-lane activity (zero on dumps predating loss epochs):
	// epochs re-entered after a loss-recovery suspension, lane
	// segments consumed by loss processes at send time, and the mean
	// heap-bypassing segments per analytic epoch.
	Reentries     float64
	LossDrops     float64
	EpochSegments float64
}

// FastPathUsageFrom extracts the fastpath_* gauge trio (plus the
// per-reason fallback breakdown when present) from a registry. ok is
// false when the registry carries no fast-path gauges (nil registry,
// or a metrics dump predating the fast-forward engine).
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
				case "loss":
					dst = &u.FallbackLoss
				case "topology":
					dst = &u.FallbackTopology
				case "teardown":
					dst = &u.FallbackTeardown
				case "disabled":
					dst = &u.FallbackDisabled
				case "loss-recovery":
					dst = &u.FallbackLossRecovery
				default:
					continue
				}
				*dst = s.Gauge.Value()
				u.HasReasons = true
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
		case "fastpath_reentries":
			dst = &u.Reentries
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

// ReadMetricsJSONL reconstructs a registry from a WriteMetricsJSONL
// dump.
func ReadMetricsJSONL(rd io.Reader) (*MetricsRegistry, error) { return obs.ReadMetricsJSONL(rd) }

// WritePrometheus renders a registry in Prometheus text exposition
// format (sorted, deterministic).
func WritePrometheus(w io.Writer, r *MetricsRegistry) error { return obs.WritePrometheus(w, r) }

// WriteChromeTrace renders collected spans as a Chrome trace-event file
// (open in Perfetto or chrome://tracing).
func WriteChromeTrace(w io.Writer, t *SpanTracer) error { return obs.WriteChromeTrace(w, t) }

// WriteSpansJSONL renders collected spans as one JSON object per line.
func WriteSpansJSONL(w io.Writer, t *SpanTracer) error { return obs.WriteSpansJSONL(w, t) }

// GoogleLike returns the calibrated Google-style deployment config:
// sparse dedicated FEs, fast stable back-ends.
func GoogleLike(seed int64) DeploymentConfig { return cdn.GoogleLike(seed) }

// BingLike returns the calibrated Bing-style deployment config: dense
// shared CDN FEs, slower more variable back-ends.
func BingLike(seed int64) DeploymentConfig { return cdn.BingLike(seed) }

// SingleBE restricts a deployment config to one back-end site (the
// Figure-9 setup).
func SingleBE(cfg DeploymentConfig, beName string) DeploymentConfig {
	return cdn.SingleBE(cfg, beName)
}

// NewRunner builds a simulated world: deployment plus vantage fleet.
func NewRunner(simSeed int64, cfg DeploymentConfig, opts RunnerOptions) (*Runner, error) {
	return emulator.New(simSeed, cfg, opts)
}

// ExtractDataset measures every record of a dataset; boundary ≤ 0
// derives the static/dynamic boundary by content analysis first.
func ExtractDataset(ds *Dataset, boundary int) []Params {
	return analysis.ExtractDataset(ds, boundary)
}

// BoundaryFromDataset derives a service's static/dynamic content
// boundary by cross-query content analysis over a dataset's traces.
func BoundaryFromDataset(ds *Dataset) int {
	return analysis.BoundaryFromDataset(ds)
}

// PerNode aggregates measured params into per-node summaries.
func PerNode(params []Params) []NodeSummary { return analysis.PerNode(params) }

// PredictTimeline runs the paper's analytic model.
func PredictTimeline(in ModelInputs) (ModelPrediction, error) { return core.Predict(in) }

// PlacementSweep runs the FE-placement ablation.
func PlacementSweep(cfg baseline.SweepConfig) ([]PlacementPoint, error) {
	return baseline.PlacementSweep(cfg)
}

// SweepConfig parameterizes PlacementSweep.
type SweepConfig = baseline.SweepConfig

// MovingMedian smooths a series the way the paper's Figure 3 does.
func MovingMedian(xs []float64, window int) []float64 {
	return stats.MovingMedian(xs, window)
}
