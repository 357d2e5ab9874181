package obs

import (
	"testing"
	"time"
)

func tailSpan(i int) *Span {
	base := time.Duration(i) * time.Second
	s := &Span{Name: "query", Track: "client", Start: base, End: base + time.Millisecond}
	s.Child("delivery", base, base+time.Millisecond)
	return s
}

func TestTailSamplerKeepsTailAndViolations(t *testing.T) {
	ts := NewTailSampler(TailConfig{Percentile: 0.90, MaxExemplars: 8})
	// 100 well-behaved fast queries, 5 slow tail queries, 3 violations
	// buried in the fast bulk.
	for i := 0; i < 100; i++ {
		ts.OfferTransient(0.050, false, tailSpan(i))
	}
	for i := 100; i < 105; i++ {
		ts.OfferTransient(1.0+float64(i-100)*0.1, false, tailSpan(i))
	}
	for i := 105; i < 108; i++ {
		ts.OfferTransient(0.050, true, tailSpan(i))
	}
	sel := ts.Select()
	violations, tail := 0, 0
	for _, e := range sel {
		if e.Violation {
			violations++
		} else {
			tail++
			if e.Value < ts.Threshold() {
				t.Errorf("retained non-tail exemplar value %v < threshold %v", e.Value, ts.Threshold())
			}
		}
	}
	if violations != 3 {
		t.Errorf("retained %d violations, want all 3", violations)
	}
	if tail == 0 {
		t.Error("no tail exemplars retained")
	}
	if len(sel) > 8+3 {
		t.Errorf("selection %d exceeds cap + violations", len(sel))
	}
	// The slowest queries must be present.
	found := false
	for _, e := range sel {
		if e.Value == 1.4 {
			found = true
		}
	}
	if !found {
		t.Error("slowest query not retained")
	}
}

func TestTailSamplerViolationsBypassCap(t *testing.T) {
	ts := NewTailSampler(TailConfig{Percentile: 0.5, MaxExemplars: 2})
	for i := 0; i < 10; i++ {
		ts.OfferTransient(float64(i), true, tailSpan(i))
	}
	if got := len(ts.Select()); got != 10 {
		t.Fatalf("retained %d violations, want all 10 despite MaxExemplars=2", got)
	}
}

func TestTailSamplerCapPrefersLargest(t *testing.T) {
	ts := NewTailSampler(TailConfig{Percentile: 0.01, MaxExemplars: 3})
	vals := []float64{5, 1, 9, 3, 7}
	for i, v := range vals {
		ts.OfferTransient(v, false, tailSpan(i))
	}
	sel := ts.Select()
	if len(sel) != 3 {
		t.Fatalf("selected %d, want 3", len(sel))
	}
	// Largest three are 9, 7, 5; selection is re-sorted by offer order.
	want := []float64{5, 9, 7}
	for i, e := range sel {
		if e.Value != want[i] {
			t.Errorf("sel[%d].Value = %v, want %v", i, e.Value, want[i])
		}
	}
}

func TestTailSamplerDeterministicAndIdempotent(t *testing.T) {
	build := func() *TailSampler {
		ts := NewTailSampler(TailConfig{Percentile: 0.8, MaxExemplars: 4})
		for i := 0; i < 50; i++ {
			ts.OfferTransient(float64(i%7)*0.1, i%13 == 0, tailSpan(i))
		}
		return ts
	}
	a, b := build(), build()
	sa, sb := a.Select(), b.Select()
	if len(sa) != len(sb) {
		t.Fatalf("selection sizes differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].Seq != sb[i].Seq || sa[i].Value != sb[i].Value {
			t.Fatalf("selection differs at %d: %+v vs %+v", i, sa[i], sb[i])
		}
	}
	again := a.Select()
	if len(again) != len(sa) {
		t.Fatal("Select is not idempotent")
	}
	if got := a.Spans().Len(); got == 0 {
		t.Fatal("Spans() returned no spans")
	}
}

func TestTailSamplerNilSafe(t *testing.T) {
	var ts *TailSampler
	ts.OfferTransient(1, true, tailSpan(0))
	if ts.Select() != nil || ts.Threshold() != 0 || ts.Offered() != 0 {
		t.Fatal("nil sampler must be inert")
	}
	var o *Observer
	if o.TailSampler() != nil {
		t.Fatal("nil observer must expose a nil sampler")
	}
	ts2 := NewTailSampler(TailConfig{})
	ts2.OfferTransient(1, false, nil) // nil spans ignored
	if ts2.Offered() != 0 {
		t.Fatal("nil span offer must be ignored")
	}
}
