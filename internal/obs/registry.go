// Package obs is the simulator's observability layer: a deterministic,
// sim-clock-driven metrics registry with one instrument kind per
// question (a count is a counter, a level or high-water mark a gauge, a
// distribution a quantile sketch), a per-query span tracer with
// tail-based exemplar sampling, and exporters for Prometheus text
// exposition and JSONL metric/span dumps.
//
// Design constraints, in order:
//
//   - Determinism. No wall clock, no goroutines, no map-iteration
//     ordering leaks: two runs with the same seed produce byte-identical
//     exports. All virtual timestamps come from the discrete-event
//     simulator; export walks sorted keys only.
//   - Near-zero disabled cost. Every instrument method is safe on a nil
//     receiver and returns immediately, so instrumented hot paths pay
//     one pointer compare when observability is off. The scheduler and
//     packet benchmarks gate this (< 10% enabled, ~0% disabled).
//   - No dependencies. The package imports only the standard library
//     plus internal/stats (itself dependency-free), so every layer of
//     the stack (simnet upward) can depend on it without cycles.
//   - Bounded cardinality. Labeled families cap their series count;
//     beyond the cap, new label combinations collapse into a single
//     OverflowLabel series instead of growing without limit, so
//     fleet-scale label dimensions (one series per vantage node) cannot
//     exhaust memory.
package obs

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"unicode/utf8"

	"fesplit/internal/stats"
)

// Kind distinguishes metric families in the registry and its exports.
type Kind uint8

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	// KindSketch is a mergeable quantile sketch (stats.Sketch); it
	// exports as a Prometheus summary with fixed quantiles.
	KindSketch
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindSketch:
		return "summary"
	}
	return "untyped"
}

// Counter is a monotonically non-decreasing metric. All methods are
// no-ops on a nil receiver.
type Counter struct{ v float64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds d (negative deltas are ignored — counters never decrease).
func (c *Counter) Add(d float64) {
	if c != nil && d > 0 {
		c.v += d
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time value that also tracks the maximum it has
// held — queue depths and concurrency levels report both. All methods
// are no-ops on a nil receiver.
type Gauge struct{ v, max float64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add adjusts the gauge by d (use ±1 for concurrency tracking).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.v += d
	if g.v > g.max {
		g.max = g.v
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// RaiseMax lifts the recorded maximum to at least v without touching
// the current value. Subsystems that track a high-water mark exactly
// and publish the live value only at flush time (the scheduler's heap
// depth) use this so the export carries the true watermark.
func (g *Gauge) RaiseMax(v float64) {
	if g != nil && v > g.max {
		g.max = v
	}
}

// Max returns the largest value the gauge has held (0 on nil).
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Sketch is a quantile-sketch instrument: a nil-safe wrapper around
// stats.Sketch recording a stream of values and answering percentile
// queries within the family's configured relative error. All methods
// are no-ops (or zero) on a nil receiver.
type Sketch struct{ sk *stats.Sketch }

// Observe records one sample.
func (s *Sketch) Observe(v float64) {
	if s != nil {
		s.sk.Add(v)
	}
}

// Quantile returns the estimated q-quantile (0 on nil or empty).
func (s *Sketch) Quantile(q float64) float64 {
	if s == nil {
		return 0
	}
	return s.sk.Quantile(q)
}

// Count returns the number of samples (0 on nil).
func (s *Sketch) Count() uint64 {
	if s == nil {
		return 0
	}
	return s.sk.Count()
}

// Sum returns the sum of all samples (0 on nil).
func (s *Sketch) Sum() float64 {
	if s == nil {
		return 0
	}
	return s.sk.Sum()
}

// Mean returns the arithmetic mean of all samples (0 on nil or
// empty).
func (s *Sketch) Mean() float64 {
	if s == nil {
		return 0
	}
	return s.sk.Mean()
}

// Underlying exposes the wrapped stats.Sketch for export and merging
// (nil on a nil instrument).
func (s *Sketch) Underlying() *stats.Sketch {
	if s == nil {
		return nil
	}
	return s.sk
}

// series is one labeled child of a family.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	sketch      *Sketch
}

// DefaultCardinality is the per-family series cap applied when a vec is
// not explicitly Bounded: generous enough for per-site dimensions,
// finite so an unbounded label (query text, client port) cannot grow
// the registry without limit.
const DefaultCardinality = 1024

// OverflowLabel is the label value carried by the collapse series that
// absorbs observations beyond a family's cardinality bound.
const OverflowLabel = "_overflow"

// Family is one named metric family: a kind, help text, label names and
// the labeled children created so far.
type Family struct {
	Name   string
	Help   string
	Kind   Kind
	labels []string
	alpha  float64 // sketch families only
	limit  int     // series cap; overflow collapses into OverflowLabel
	site   string  // file:line of the first registration
	kids   map[string]*series
}

// Registry holds metric families. The zero value is not usable; create
// one with NewRegistry. A nil *Registry is a valid "disabled" registry:
// every getter returns a nil instrument whose methods are no-ops.
type Registry struct {
	families map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Family)}
}

// regSite reports the file:line that called into the registry's public
// surface, for duplicate-registration diagnostics.
func regSite() string {
	// 0 = regSite, 1 = family, 2 = the Registry method, 3 = its caller.
	if _, file, line, ok := runtime.Caller(3); ok {
		return fmt.Sprintf("%s:%d", file, line)
	}
	return "unknown"
}

// family returns (creating if needed) the named family. Re-registering
// a name with a different schema — kind, label names, sketch accuracy
// or help text — panics with both registration sites:
// the two call sites are silently writing into each other's series, and
// that is a programming error, not a runtime condition.
func (r *Registry) family(name, help string, kind Kind, labels []string, alpha float64) *Family {
	f, ok := r.families[name]
	if !ok {
		f = &Family{
			Name:   name,
			Help:   help,
			Kind:   kind,
			labels: labels,
			alpha:  alpha,
			limit:  DefaultCardinality,
			site:   regSite(),
			kids:   make(map[string]*series),
		}
		r.families[name] = f
		return f
	}
	if mismatch := f.schemaMismatch(help, kind, labels, alpha); mismatch != "" {
		panic(fmt.Sprintf("obs: metric %q re-registered with different %s\n  first registered at %s\n  re-registered at    %s",
			name, mismatch, f.site, regSite()))
	}
	return f
}

// schemaMismatch names the first differing schema field, or "" when the
// registration is an exact duplicate (the normal get-or-create idiom).
func (f *Family) schemaMismatch(help string, kind Kind, labels []string, alpha float64) string {
	if f.Kind != kind {
		return fmt.Sprintf("kind (%s vs %s)", f.Kind, kind)
	}
	if len(f.labels) != len(labels) {
		return fmt.Sprintf("label arity (%d vs %d)", len(f.labels), len(labels))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			return fmt.Sprintf("label names (%q vs %q)", f.labels[i], labels[i])
		}
	}
	if f.alpha != alpha {
		return fmt.Sprintf("sketch accuracy (%v vs %v)", f.alpha, alpha)
	}
	if f.Help != help {
		return "help text"
	}
	return ""
}

// child returns (creating if needed) the series for the given label
// values. Once the family holds limit series, unseen label combinations
// collapse into the shared OverflowLabel series.
func (f *Family) child(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.Name, len(f.labels), len(values)))
	}
	// Coerce label values to valid UTF-8 up front so every export format
	// (Prometheus text, JSONL, JSON traces) sees identical bytes and the
	// JSONL dump round-trips to the same series identity.
	for i, v := range values {
		if !utf8.ValidString(v) {
			clean := make([]string, len(values))
			copy(clean, values)
			for j := i; j < len(clean); j++ {
				clean[j] = strings.ToValidUTF8(clean[j], "�")
			}
			values = clean
			break
		}
	}
	key := labelKey(values)
	s, ok := f.kids[key]
	if ok {
		return s
	}
	if f.limit > 0 && len(f.labels) > 0 && len(f.kids) >= f.limit {
		overflow := make([]string, len(f.labels))
		for i := range overflow {
			overflow[i] = OverflowLabel
		}
		okey := labelKey(overflow)
		if s, ok = f.kids[okey]; ok {
			return s
		}
		key, values = okey, overflow
	}
	vals := make([]string, len(values))
	copy(vals, values)
	s = &series{labelValues: vals}
	switch f.Kind {
	case KindCounter:
		s.counter = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	case KindSketch:
		s.sketch = &Sketch{sk: stats.NewSketch(f.alpha)}
	}
	f.kids[key] = s
	return s
}

// labelKey joins label values with an unlikely separator.
func labelKey(values []string) string {
	key := ""
	for i, v := range values {
		if i > 0 {
			key += "\x1f"
		}
		key += v
	}
	return key
}

// Counter returns the unlabeled counter of the named family, creating
// it on first use. Nil registry → nil counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, KindCounter, nil, 0).child(nil).counter
}

// Gauge returns the unlabeled gauge of the named family.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, KindGauge, nil, 0).child(nil).gauge
}

// Sketch returns the unlabeled quantile sketch of the named family with
// the given relative accuracy (≤ 0 → stats.DefaultSketchAlpha).
func (r *Registry) Sketch(name, help string, alpha float64) *Sketch {
	if r == nil {
		return nil
	}
	return r.family(name, help, KindSketch, nil, normAlpha(alpha)).child(nil).sketch
}

// DefaultSketchAlpha re-exports the stats-layer default relative
// accuracy so instrumentation sites need not import internal/stats.
const DefaultSketchAlpha = stats.DefaultSketchAlpha

// normAlpha resolves the default sketch accuracy once, so schema checks
// compare resolved values.
func normAlpha(alpha float64) float64 {
	if alpha <= 0 || alpha >= 1 {
		return stats.DefaultSketchAlpha
	}
	return alpha
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *Family }

// CounterVec returns the labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, KindCounter, labels, 0)}
}

// With returns the child counter for the label values (nil on nil vec).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values).counter
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *Family }

// GaugeVec returns the labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.family(name, help, KindGauge, labels, 0)}
}

// With returns the child gauge for the label values (nil on nil vec).
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(values).gauge
}

// SketchVec is a quantile-sketch family with labels.
type SketchVec struct{ f *Family }

// SketchVec returns the labeled sketch family with the given relative
// accuracy (≤ 0 → stats.DefaultSketchAlpha).
func (r *Registry) SketchVec(name, help string, alpha float64, labels ...string) *SketchVec {
	if r == nil {
		return nil
	}
	return &SketchVec{f: r.family(name, help, KindSketch, labels, normAlpha(alpha))}
}

// With returns the child sketch for the label values (nil on nil vec).
func (v *SketchVec) With(values ...string) *Sketch {
	if v == nil {
		return nil
	}
	return v.f.child(values).sketch
}

// Bounded caps the vec's series count (see Family cardinality) and
// returns the vec for chaining.
func (v *SketchVec) Bounded(n int) *SketchVec {
	if v != nil {
		v.f.limit = n
	}
	return v
}

// Families returns the registry's families sorted by name (nil registry
// → nil). Exporters and tests iterate this, never the internal maps.
func (r *Registry) Families() []*Family {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Family, len(names))
	for i, n := range names {
		out[i] = r.families[n]
	}
	return out
}

// Series returns the family's children sorted by label values.
func (f *Family) Series() []SeriesView {
	keys := make([]string, 0, len(f.kids))
	for k := range f.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]SeriesView, 0, len(keys))
	for _, k := range keys {
		s := f.kids[k]
		out = append(out, SeriesView{
			LabelNames:  f.labels,
			LabelValues: s.labelValues,
			Counter:     s.counter,
			Gauge:       s.gauge,
			Sketch:      s.sketch,
		})
	}
	return out
}

// Alpha returns the family's sketch relative accuracy (0 for non-sketch
// families).
func (f *Family) Alpha() float64 { return f.alpha }

// LabelNames returns the family's label names.
func (f *Family) LabelNames() []string { return f.labels }

// SeriesView is one labeled series of a family, for export. Exactly one
// of Counter/Gauge/Sketch is non-nil, matching the family kind.
type SeriesView struct {
	LabelNames  []string
	LabelValues []string
	Counter     *Counter
	Gauge       *Gauge
	Sketch      *Sketch
}
