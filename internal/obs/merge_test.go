package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fillRegistry records a deterministic slice of observations into r.
// Values are small integers (exactly representable), so any split of
// the observations across registries must merge to bit-equal state.
func fillRegistry(r *Registry, lo, hi int) {
	for i := lo; i < hi; i++ {
		r.Counter("merge_test_total", "a counter").Add(float64(i%5 + 1))
		r.CounterVec("merge_test_by_svc_total", "a labeled counter", "svc").
			With([]string{"google", "bing"}[i%2]).Inc()
		// Watermark-style gauge: monotone, so "last set" in one registry
		// equals the cross-shard max — the only gauge pattern that is
		// shard-order independent (see Registry.Merge).
		r.Gauge("merge_test_high_water", "a gauge").Set(float64(i))
		r.Sketch("merge_test_sketch", "a sketch", 0).Observe(float64(i%100 + 1))
	}
}

func TestMergeEqualsSingleRegistry(t *testing.T) {
	// One registry fed everything vs. k shards fed disjoint slices and
	// merged in shard order: the exported JSONL and Prometheus text must
	// be byte-identical. This is the property the parallel study runner
	// stands on.
	const n = 120
	single := NewRegistry()
	fillRegistry(single, 0, n)

	for _, k := range []int{2, 3, 5} {
		merged := NewRegistry()
		for s := 0; s < k; s++ {
			shard := NewRegistry()
			fillRegistry(shard, s*n/k, (s+1)*n/k)
			if err := merged.Merge(shard); err != nil {
				t.Fatalf("k=%d shard %d: %v", k, s, err)
			}
		}
		var want, got bytes.Buffer
		if err := WriteMetricsJSONL(&want, single); err != nil {
			t.Fatal(err)
		}
		if err := WriteMetricsJSONL(&got, merged); err != nil {
			t.Fatal(err)
		}
		if want.String() != got.String() {
			t.Fatalf("k=%d: merged JSONL differs from single-registry JSONL", k)
		}
		want.Reset()
		got.Reset()
		if err := WritePrometheus(&want, single); err != nil {
			t.Fatal(err)
		}
		if err := WritePrometheus(&got, merged); err != nil {
			t.Fatal(err)
		}
		if want.String() != got.String() {
			t.Fatalf("k=%d: merged Prometheus text differs", k)
		}
	}
}

func TestMergeGaugeTakesMax(t *testing.T) {
	// Gauges cannot add across shards: the merged value is the largest
	// last-set value, and the watermark is the largest watermark.
	a, b := NewRegistry(), NewRegistry()
	a.Gauge("depth", "queue depth").Set(3)
	a.Gauge("depth", "queue depth").Set(2) // current 2, max 3
	b.Gauge("depth", "queue depth").Set(5)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	g := a.Gauge("depth", "queue depth")
	if got := g.Value(); got != 5 {
		t.Errorf("merged gauge value %v, want 5", got)
	}
	if got := g.Max(); got != 5 {
		t.Errorf("merged gauge max %v, want 5", got)
	}
}

func TestMergeSchemaMismatch(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("thing_total", "as counter")
	b.Gauge("thing_total", "as gauge")
	err := a.Merge(b)
	if err == nil {
		t.Fatal("merging a counter into a gauge succeeded")
	}
	if !strings.Contains(err.Error(), "thing_total") {
		t.Errorf("error %q does not name the metric", err)
	}
}

func TestMergeNilCases(t *testing.T) {
	r := NewRegistry()
	if err := r.Merge(nil); err != nil {
		t.Errorf("merge of nil source: %v", err)
	}
	var nilReg *Registry
	if err := nilReg.Merge(NewRegistry()); err == nil {
		t.Error("merge into nil registry succeeded")
	}
	if err := nilReg.Merge(nil); err != nil {
		t.Errorf("nil into nil should be a no-op: %v", err)
	}
}

func TestMergeTailSamplersEqualsSingle(t *testing.T) {
	// Offers split across k samplers and merged must select the same
	// exemplar set as one sampler that saw everything: the threshold is
	// a property of the merged distribution, not of any shard's.
	cfg := TailConfig{Percentile: 0.9, MaxExemplars: 8}
	mkSpan := func(i int) *Span {
		return &Span{Name: "query", Track: "node", Start: 0, End: time.Duration(i) * time.Millisecond}
	}
	offer := func(t *TailSampler, lo, hi int) {
		for i := lo; i < hi; i++ {
			// Values 1..n with a violation sprinkled in; exactly
			// representable so shard split cannot perturb the sketch.
			t.Offer(float64(i+1), i%37 == 0, func() *Span { return mkSpan(i) })
		}
	}
	const n = 111
	single := NewTailSampler(cfg)
	offer(single, 0, n)

	shards := make([]*TailSampler, 3)
	for s := range shards {
		shards[s] = NewTailSampler(cfg)
		offer(shards[s], s*n/3, (s+1)*n/3)
	}
	merged := MergeTailSamplers(shards...)

	want, got := single.Select(), merged.Select()
	if len(want) != len(got) {
		t.Fatalf("selected %d exemplars from merge, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Value != got[i].Value || want[i].Violation != got[i].Violation {
			t.Fatalf("exemplar %d: merged (%v,%v) vs single (%v,%v)",
				i, got[i].Value, got[i].Violation, want[i].Value, want[i].Violation)
		}
	}
	if single.Threshold() != merged.Threshold() {
		t.Errorf("threshold: merged %v vs single %v", merged.Threshold(), single.Threshold())
	}
}

func TestMergeTailSamplersNilAndEmpty(t *testing.T) {
	if s := MergeTailSamplers(); s == nil {
		t.Fatal("no-arg merge returned nil")
	}
	if s := MergeTailSamplers(nil, nil); s == nil || s.Offered() != 0 {
		t.Fatal("all-nil merge should yield an empty sampler")
	}
	real := NewTailSampler(TailConfig{Percentile: 0.5})
	real.Offer(1, false, func() *Span { return &Span{Name: "q"} })
	merged := MergeTailSamplers(nil, real)
	if merged.Offered() != 1 {
		t.Fatalf("offered %d, want 1", merged.Offered())
	}
	if merged.Config().Percentile != 0.5 {
		t.Errorf("config not taken from first non-nil sampler: %+v", merged.Config())
	}
}
