package obs

import (
	"fmt"
	"time"
)

// ConnKey identifies one TCP connection from the capturing host's
// perspective. It is structurally identical to capture.ConnKey so the
// two convert directly (obs cannot import capture without creating an
// import cycle through simnet), letting spans be cross-checked against
// trace-derived parameters for the same session.
type ConnKey struct {
	Remote     string
	LocalPort  uint16
	RemotePort uint16
}

// String renders the key as remote:rport/lport.
func (k ConnKey) String() string {
	return fmt.Sprintf("%s:%d/%d", k.Remote, k.RemotePort, k.LocalPort)
}

// Attr is one key/value annotation on a span. A slice (not a map) keeps
// export ordering deterministic.
type Attr struct {
	K, V string
}

// Span is one named interval of virtual time, with children forming the
// causal tree of a query (DNS resolve → handshake → GET → static flush
// → FE↔BE fetch → dynamic delivery).
type Span struct {
	// Name identifies the phase, e.g. "query", "handshake", "fe-fetch".
	Name string
	// Track groups spans for display: client-side spans carry the
	// vantage node's host ID, server-side spans the FE's.
	Track string
	// Key ties the span to its TCP session; zero for spans that precede
	// the connection (DNS) or aggregate above it.
	Key ConnKey
	// Start and End are virtual times.
	Start, End time.Duration
	// Attrs annotate the span (query keywords, status, byte counts).
	Attrs    []Attr
	Children []*Span
}

// Dur returns the span's duration.
func (s *Span) Dur() time.Duration { return s.End - s.Start }

// Child appends and returns a child span on the same track and session.
func (s *Span) Child(name string, start, end time.Duration) *Span {
	c := &Span{Name: name, Track: s.Track, Key: s.Key, Start: start, End: end}
	s.Children = append(s.Children, c)
	return c
}

// SetAttr appends one annotation.
func (s *Span) SetAttr(k, v string) { s.Attrs = append(s.Attrs, Attr{K: k, V: v}) }

// Tracer is the export container for finished span trees, one root per
// query, in Add order (TailSampler.Spans fills one with the selected
// exemplars for the JSONL exporter).
type Tracer struct {
	roots []*Span
	count int
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Add records a finished span tree. No-op on a nil tracer or nil span.
func (t *Tracer) Add(root *Span) {
	if t == nil || root == nil {
		return
	}
	t.roots = append(t.roots, root)
	t.count += countSpans(root)
}

// Roots returns the recorded span trees in Add order (nil tracer → nil).
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	return t.roots
}

// Len returns the total number of spans across all trees.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.count
}

func countSpans(s *Span) int {
	n := 1
	for _, c := range s.Children {
		n += countSpans(c)
	}
	return n
}

// Walk visits every span depth-first, parents before children, with the
// nesting depth (roots are depth 0).
func (t *Tracer) Walk(fn func(s *Span, depth int)) {
	if t == nil {
		return
	}
	var rec func(s *Span, d int)
	rec = func(s *Span, d int) {
		fn(s, d)
		for _, c := range s.Children {
			rec(c, d+1)
		}
	}
	for _, r := range t.roots {
		rec(r, 0)
	}
}

// Observer bundles the halves of the observability layer. A nil
// *Observer disables everything it would wire: all fields' methods are
// nil-safe, so instrumentation reads naturally at call sites.
//
// Reg collects metrics. Tail, when set, receives analysis.Fold's tail
// offers and retains the tail/violation exemplars; a span tree is built
// only for an offer it keeps.
type Observer struct {
	Reg  *Registry
	Tail *TailSampler
}

// NewTailObserver returns an observer with a fresh registry and a
// tail-based exemplar sampler.
func NewTailObserver(cfg TailConfig) *Observer {
	return &Observer{Reg: NewRegistry(), Tail: NewTailSampler(cfg)}
}

// Registry returns the observer's registry (nil observer → nil
// registry, which disables every instrument derived from it).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// TailSampler returns the observer's exemplar sampler (nil observer →
// nil).
func (o *Observer) TailSampler() *TailSampler {
	if o == nil {
		return nil
	}
	return o.Tail
}
