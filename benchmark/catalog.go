package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// This file is the single declaration of what the benchmark measures:
// the four workloads and every metric it can print. BENCHMARK.json at
// the repository root is generated from it (`manifest` subcommand) and
// the self-tests fail on any drift between the two.

// Workload names. They are frozen: a later change compares against
// numbers recorded under these names.
const (
	wPaperCore = "paper-core"
	wLossy     = "lossy-access"
	wFleet     = "fleet-diurnal"
	wObserved  = "study-observed"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 18

// Metric sources for per-layer metrics — all outside-in, none editing
// the program (see README "Per-layer ledger").
const (
	srcSpan   = "S" // harness span around a public call (wall seconds)
	srcCount  = "C" // count the program publishes, read after the run
	srcProf   = "P" // CPU/alloc profile attributed to the innermost fesplit frame
	srcKernel = "K" // isolated kernel probe of one public function
	srcBench  = "B" // the harness's own bookkeeping
)

// metricDef declares one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen (0 on per-layer metrics — they are not gated).
	Bound float64
	// Source is one of the src* letters (per-layer only).
	Source string
	// Exact marks values that repeat bit for bit at a fixed seed:
	// `compare` demands equality instead of applying a bound.
	Exact bool
	// On lists the workloads on which the metric is observable; nil
	// means all four. Elsewhere the harness prints n/a (0 in the
	// driver line, which only carries numbers).
	On []string
}

func (m metricDef) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// workloadDef declares one workload.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{wPaperCore, "Frozen Fig 3-9 + caching matrix on loss-free paths, one worker: fast lane, full-payload capture, content analysis, the materialised Runner. The only workload that reads payload bytes."},
	{wLossy, "250 nodes behind a 3% loss jittery access link, snapped capture: per-packet loss recovery, fast-lane suspension/re-entry and the event heap do the most work here and the least in paper-core."},
	{wFleet, "20000 ephemeral clients on the pooled FleetRunner with streaming sinks, two workers, open-loop diurnal arrivals in simulated time: memory must track concurrency, not client count."},
	{wObserved, "What `fesplit study` does: the 20-cell observed matrix on two workers plus every exporter; the only workload running obs sinks, sketches, critpath, shard merge, queue cells. Golden-checked at seed 42."},
}

// endToEnd are the metrics a user of the simulator sees. Bounds follow
// the ten-seed spread measured on the 2-vCPU build box (README
// "Baseline and spread"). Host-time metrics carry the contract's
// largest bound: the box itself drifts ±10 % over minutes (memory-bound
// code under noisy neighbours), which no amount of repetition inside an
// 18 s run removes. The allocation metrics are the steady gate.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_bytes_per_query", Unit: "B", Better: "lower", Bound: 0.02},
	{Name: "allocs_per_query", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "heap_p99_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// studyCells are the public cell methods timed one by one in the traced
// run; the first six are paper-core's closed set.
var studyCells = []string{
	"fig3", "fig4", "fig5", "figA", "fig9", "caching",
	"term-effect", "interactive", "model-validation", "wireless",
	"queue-overload", "queue-hotspot", "queue-failover", "queue-capacity",
}

const paperCoreCells = 6

var (
	// onRegistry: workloads whose worlds the harness can attach an
	// obs.Registry to through the public API (the campaign worlds of
	// lossy-access; the figA and queue cells of study-observed). The
	// Study API gives paper-core and fleet-diurnal no observer hook.
	onRegistry = []string{wLossy, wObserved}
	onSharded  = []string{wFleet, wObserved}
	onStudy    = []string{wPaperCore, wObserved}
	onObserved = []string{wObserved}
	onLossy    = []string{wLossy}
	// RunFleetStudy keeps its per-batch registries to itself.
	onNotFleet = []string{wPaperCore, wLossy, wObserved}
)

// perLayer is the outside-in ledger, layer = module name.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	c := func(name, unit, better string, on []string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, Source: srcCount, Exact: true, On: on}
	}
	p := func(name, unit string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", Source: srcProf}
	}
	k := func(name string) metricDef {
		return metricDef{Name: name, Unit: "ns", Better: "lower", Source: srcKernel}
	}
	s := func(name string, on []string) metricDef {
		return metricDef{Name: name, Unit: "s", Better: "lower", Source: srcSpan, On: on}
	}
	ms := []metricDef{
		// The modelled system's own result. Exact per seed; a
		// simulator-only speed-up must leave them bit-identical.
		c("sim.queries_per_rep", "count", "higher", nil),
		c("sim.failed_share", "ratio", "lower", nil),
		c("sim.refused_share", "ratio", "lower", nil),
		c("sim.overall_p50_ms", "ms", "lower", nil),
		c("sim.overall_tail_ms", "ms", "lower", nil),
		c("sim.tail_percentile", "%", "higher", nil),

		c("simnet.events_per_query", "count", "lower", nil),
		c("simnet.heap_depth_max", "count", "lower", nil),
		c("simnet.packets_per_query", "count", "lower", onRegistry),
		c("simnet.drop_share", "ratio", "lower", onRegistry),
		p("simnet.cpu_share", "ratio"),
		k("simnet.event_ns"),
		k("simnet.send_ns"),

		c("tcpsim.segments_per_query", "count", "lower", onRegistry),
		c("tcpsim.retransmit_share", "ratio", "lower", onRegistry),
		c("tcpsim.rto_per_kquery", "count", "lower", onRegistry),
		c("tcpsim.conns_per_query", "count", "lower", onRegistry),
		// Needs engine and registry to cover the same worlds.
		c("tcpsim.fastlane_segment_share", "ratio", "higher", onLossy),
		c("tcpsim.fastlane_segments_per_query", "count", "higher", nil),
		c("tcpsim.fastlane_fallbacks_per_kquery", "count", "lower", nil),
		c("tcpsim.fastlane_epoch_segments", "count", "higher", nil),
		p("tcpsim.cpu_share", "ratio"),
		p("tcpsim.alloc_bytes_per_query", "B"),
		k("tcpsim.bulk_ns_per_segment"),
		k("tcpsim.lossy_ns_per_segment"),

		p("httpsim.cpu_share", "ratio"),
		p("httpsim.alloc_bytes_per_query", "B"),
		k("httpsim.get_ns"),

		k("workload.body_ns"),
		c("workload.body_bytes_per_query", "B", "lower", nil),
		p("workload.cpu_share", "ratio"),
		p("workload.alloc_bytes_per_query", "B"),

		c("frontend.requests_per_query", "count", "lower", onRegistry),
		c("frontend.be_dials_per_kquery", "count", "lower", onRegistry),
		c("frontend.rejections_per_kquery", "count", "lower", onRegistry),
		c("frontend.retries_per_kquery", "count", "lower", onRegistry),
		c("frontend.pool_wait_depth_max", "count", "lower", onRegistry),
		p("frontend.cpu_share", "ratio"),

		c("backend.requests_per_query", "count", "lower", onRegistry),
		c("backend.rejections_per_kquery", "count", "lower", onRegistry),
		c("backend.queue_depth_max", "count", "lower", onRegistry),
		c("backend.utilization_max", "ratio", "lower", onRegistry),
		p("backend.cpu_share", "ratio"),
		k("backend.submit_ns"),

		s("cdn.build_s", nil),
		s("vantage.fleet_s", nil),

		p("emulator.run_s", "s"),
		p("emulator.self_cpu_share", "ratio"),
		c("emulator.fleet_slots", "count", "lower", nil),
		c("emulator.fleet_peak_live", "count", "lower", nil),
		c("emulator.fleet_peak_felog", "count", "lower", nil),
		c("emulator.fleet_arena_cap", "count", "lower", nil),

		c("capture.events_per_query", "count", "lower", onLossy),
		p("capture.sessions_s", "s"),
		p("capture.cpu_share", "ratio"),
		p("capture.alloc_bytes_per_query", "B"),

		k("trace.parse_ns"),
		p("trace.cpu_share", "ratio"),
		p("trace.alloc_bytes_per_query", "B"),

		p("analysis.extract_s", "s"),
		p("analysis.boundary_s", "s"),
		c("analysis.unmeasurable_share", "ratio", "lower", nil),
		c("analysis.bound_violations", "count", "lower", nil),
		c("analysis.fig9_err_pct", "%", "lower", onStudy),

		k("stats.sketch_add_ns"),
		p("stats.cpu_share", "ratio"),
		p("obs.cpu_share", "ratio"),
		p("obs.alloc_bytes_per_query", "B"),
		c("obs.series", "count", "lower", onNotFleet),
		c("obs.exemplars", "count", "lower", nil),
		{Name: "obs.observe_overhead_pct", Unit: "%", Better: "lower", Source: srcSpan, On: onObserved},
		s("obs.export_s", onObserved),
		c("critpath.records", "count", "higher", onObserved),
		c("critpath.conservation_breaks", "count", "lower", onObserved),

		{Name: "shard.speedup_x", Unit: "x", Better: "higher", Source: srcSpan, On: onSharded},
		{Name: "shard.cpu_inflation_x", Unit: "x", Better: "lower", Source: srcSpan, On: onSharded},
	}
	for i, cell := range studyCells {
		on := onObserved
		if i < paperCoreCells {
			on = onStudy
		}
		ms = append(ms, s("study.cell."+cell+"_s", on))
	}
	ms = append(ms,
		s("report.text_s", onObserved),
		s("report.csv_s", onSharded),
		s("report.html_s", onObserved),

		p("go-runtime.gc_bg_cpu_share", "ratio"),
		metricDef{Name: "go-runtime.gc_cycles_per_kquery", Unit: "count", Better: "lower", Source: srcCount},
		metricDef{Name: "go-runtime.gc_pause_ms", Unit: "ms", Better: "lower", Source: srcCount},
		metricDef{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Source: srcBench},
		metricDef{Name: "bench.total_s", Unit: "s", Better: "lower", Source: srcBench},
	)
	return ms
}

// manifest is the exact shape of BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// buildManifest renders the catalog as BENCHMARK.json content.
func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestWL{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// metricByName finds a declared metric (end-to-end or per-layer).
func metricByName(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	for _, d := range perLayer {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func workloadNames() []string {
	out := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		out[i] = w.Name
	}
	return out
}

// checkDeclared verifies that a printed metric set is exactly the
// declared one for its kind and workload: nothing undeclared, nothing
// missing, nothing observable left n/a.
func checkDeclared(workload string, defs []metricDef, got map[string]float64, na map[string]bool) error {
	var bad []string
	seen := map[string]bool{}
	for _, d := range defs {
		seen[d.Name] = true
		_, have := got[d.Name]
		switch {
		case !have:
			bad = append(bad, d.Name+": declared but not reported")
		case d.on(workload) && na[d.Name]:
			bad = append(bad, d.Name+": observable on "+workload+" but reported n/a")
		case !d.on(workload) && !na[d.Name]:
			bad = append(bad, d.Name+": not observable on "+workload+" but reported a value")
		}
	}
	for name := range got {
		if !seen[name] {
			bad = append(bad, name+": reported but not declared")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metric drift on %s: %v", workload, bad)
	}
	return nil
}
