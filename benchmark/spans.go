package main

import (
	"encoding/json"
	"io"
	"time"
)

// spanRec records harness-side spans around calls into the program's
// public functions: name, start, end, the span that caused it, and the
// run they share. Spans stay in memory until the child exits and are
// then written as Chrome trace-event JSON. A nil *spanRec records
// nothing, which is how untraced repetitions run the same code.
//
// The harness calls into the program from one goroutine, so the
// recorder needs no lock.
type spanRec struct {
	runID string
	t0    time.Time
	spans []span
	open  []int // stack of indices into spans
}

type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int // index of the causing span, -1 for a root
}

func newSpanRec(runID string) *spanRec {
	return &spanRec{runID: runID, t0: time.Now()}
}

// begin opens a span and returns the function that closes it.
func (r *spanRec) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0), Parent: parent})
	r.open = append(r.open, idx)
	return func() {
		r.spans[idx].End = time.Since(r.t0)
		r.open = r.open[:len(r.open)-1]
	}
}

// durations returns the inclusive seconds of every finished span with
// the given name, in recording order.
func (r *spanRec) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// selfSeconds is a span's duration minus the part its children cover.
func (r *spanRec) selfSeconds(idx int) float64 {
	s := r.spans[idx]
	self := s.End - s.Start
	for _, c := range r.spans {
		if c.Parent == idx {
			self -= c.End - c.Start
		}
	}
	return self.Seconds()
}

// writeChrome renders the spans as a Chrome trace-event file (load it
// in Perfetto or chrome://tracing).
func (r *spanRec) writeChrome(w io.Writer) error {
	type ev struct {
		Name string                 `json:"name"`
		Ph   string                 `json:"ph"`
		TS   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		PID  int                    `json:"pid"`
		TID  int                    `json:"tid"`
		Args map[string]interface{} `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]ev, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End == 0 {
			continue
		}
		events = append(events, ev{
			Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: 1,
			Args: map[string]interface{}{
				"run": r.runID, "id": i, "parent": s.Parent, "self_s": r.selfSeconds(i),
			},
		})
	}
	return json.NewEncoder(w).Encode(map[string]interface{}{"traceEvents": events})
}
