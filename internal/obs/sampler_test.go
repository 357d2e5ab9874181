package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// tailSpan is the build function of offer i's small tree.
func tailSpan(i int) func() *Span {
	return func() *Span {
		base := time.Duration(i) * time.Second
		s := &Span{Name: "query", Track: "client", Start: base, End: base + time.Millisecond}
		s.Child("delivery", base, base+time.Millisecond)
		return s
	}
}

// queryTree builds a representative query tree (root + attrs + nested
// children), parameterized by i so trees are distinguishable.
func queryTree(i int) *Span {
	base := time.Duration(i) * time.Second
	root := &Span{Name: "query", Track: "client", Key: ConnKey{Remote: "fe", LocalPort: uint16(i), RemotePort: 80}, Start: base, End: base + time.Millisecond}
	root.SetAttr("idx", fmt.Sprint(i))
	h := root.Child("tcp-handshake", base, base+100*time.Microsecond)
	h.SetAttr("rtt", "100us")
	d := root.Child("delivery", base+100*time.Microsecond, base+time.Millisecond)
	d.Child("fe-fetch", base+200*time.Microsecond, base+800*time.Microsecond)
	return root
}

func TestTailSamplerKeepsTailAndViolations(t *testing.T) {
	ts := NewTailSampler(TailConfig{Percentile: 0.90, MaxExemplars: 8})
	// 100 well-behaved fast queries, 5 slow tail queries, 3 violations
	// buried in the fast bulk.
	for i := 0; i < 100; i++ {
		ts.Offer(0.050, false, tailSpan(i))
	}
	for i := 100; i < 105; i++ {
		ts.Offer(1.0+float64(i-100)*0.1, false, tailSpan(i))
	}
	for i := 105; i < 108; i++ {
		ts.Offer(0.050, true, tailSpan(i))
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
		ts.Offer(float64(i), true, tailSpan(i))
	}
	if got := len(ts.Select()); got != 10 {
		t.Fatalf("retained %d violations, want all 10 despite MaxExemplars=2", got)
	}
}

func TestTailSamplerCapPrefersLargest(t *testing.T) {
	ts := NewTailSampler(TailConfig{Percentile: 0.01, MaxExemplars: 3})
	vals := []float64{5, 1, 9, 3, 7}
	for i, v := range vals {
		ts.Offer(v, false, tailSpan(i))
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
			ts.Offer(float64(i%7)*0.1, i%13 == 0, tailSpan(i))
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
	if len(sa) == 0 {
		t.Fatal("no exemplars selected")
	}
	again := a.Select()
	if len(again) != len(sa) {
		t.Fatal("Select is not idempotent")
	}
	for _, e := range sa {
		if e.Span == nil {
			t.Fatalf("exemplar %d has no span tree", e.Seq)
		}
	}
}

func TestTailSamplerNilSafe(t *testing.T) {
	var ts *TailSampler
	ts.Offer(1, true, tailSpan(0))
	if ts.Select() != nil || ts.Threshold() != 0 || ts.Offered() != 0 {
		t.Fatal("nil sampler must be inert")
	}
	var o *Observer
	if o.TailSampler() != nil {
		t.Fatal("nil observer must expose a nil sampler")
	}
	ts2 := NewTailSampler(TailConfig{})
	ts2.Offer(1, false, nil) // nil builds ignored
	if ts2.Offered() != 0 {
		t.Fatal("nil build offer must be ignored")
	}
}

// TestTailSamplerBuildsOnlyKept counts build calls: an offer the pool
// rejects never builds its tree, and one it retains (tail candidate or
// violation) builds it exactly once, even when a later offer evicts it.
func TestTailSamplerBuildsOnlyKept(t *testing.T) {
	ts := NewTailSampler(TailConfig{Percentile: 0.5, MaxExemplars: 2})
	for i, o := range []struct {
		value     float64
		violation bool
		builds    int
	}{
		{5, false, 1}, // pool has room
		{4, false, 1}, // pool has room, now full
		{1, false, 0}, // worse than the pool's worst: rejected
		{4, false, 0}, // ties the worst, offered later: rejected
		{9, false, 1}, // evicts 4
		{0, true, 1},  // violations are always kept
	} {
		builds := 0
		ts.Offer(o.value, o.violation, func() *Span {
			builds++
			return &Span{Name: "query"}
		})
		if builds != o.builds {
			t.Fatalf("offer %d (%v, violation %v) built %d times, want %d", i, o.value, o.violation, builds, o.builds)
		}
	}
	if ts.Offered() != 6 {
		t.Fatalf("offered %d, want 6", ts.Offered())
	}
	for _, e := range ts.Select() {
		if e.Span == nil {
			t.Fatalf("kept exemplar %+v has no span", e)
		}
	}
}

// offerStream drives a pseudo-random stream of offers into ts, each
// building its own tree, and returns every offer made, spans built
// independently, for bruteSelect to choose from.
func offerStream(ts *TailSampler, seed int64, n int) []Exemplar {
	rng := rand.New(rand.NewSource(seed))
	all := make([]Exemplar, n)
	for i := range all {
		v := rng.ExpFloat64() * 0.1
		viol := rng.Intn(400) == 0
		all[i] = Exemplar{Value: v, Violation: viol, Span: queryTree(i), Seq: i}
		ts.Offer(v, viol, func() *Span { return queryTree(i) })
	}
	return all
}

// bruteSelect is the selection rule written out over every offer ever
// made, with nothing evicted along the way: all violations, plus the
// offers at or above thr — largest first, earlier offer winning ties —
// up to what the cap leaves after the violations; in offer order.
func bruteSelect(all []Exemplar, thr float64, maxExemplars int) []Exemplar {
	var kept, tail []Exemplar
	for _, e := range all {
		switch {
		case e.Violation:
			kept = append(kept, e)
		case e.Value >= thr:
			tail = append(tail, e)
		}
	}
	sort.Slice(tail, func(i, j int) bool {
		if tail[i].Value != tail[j].Value {
			return tail[i].Value > tail[j].Value
		}
		return tail[i].Seq < tail[j].Seq
	})
	if budget := maxExemplars - len(kept); budget < 0 {
		tail = nil
	} else if len(tail) > budget {
		tail = tail[:budget]
	}
	kept = append(kept, tail...)
	sort.Slice(kept, func(i, j int) bool { return kept[i].Seq < kept[j].Seq })
	return kept
}

func sameSelection(t *testing.T, got, want []Exemplar, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: selected %d exemplars, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Value != want[i].Value || got[i].Seq != want[i].Seq || got[i].Violation != want[i].Violation {
			t.Fatalf("%s: exemplar %d = {v=%v seq=%d viol=%v}, want {v=%v seq=%d viol=%v}",
				label, i, got[i].Value, got[i].Seq, got[i].Violation,
				want[i].Value, want[i].Seq, want[i].Violation)
		}
		if !reflect.DeepEqual(got[i].Span, want[i].Span) {
			t.Fatalf("%s: exemplar %d span tree differs", label, i)
		}
	}
}

// TestBoundedSamplerMatchesExact: the sampler's bounded pool must select
// exactly what a brute-force pass over every offer selects, each kept
// exemplar carrying the tree its own offer built, while never holding
// more than MaxExemplars non-violation candidates.
func TestBoundedSamplerMatchesExact(t *testing.T) {
	const n = 5000
	for _, seed := range []int64{1, 2, 3} {
		for _, max := range []int{1, 16, 64, 500} {
			ts := NewTailSampler(TailConfig{Percentile: 0.99, MaxExemplars: max})
			all := offerStream(ts, seed, n)
			label := fmt.Sprintf("seed %d max %d", seed, max)
			if ts.Offered() != n {
				t.Fatalf("%s: offered %d, want %d", label, ts.Offered(), n)
			}
			if got := len(ts.cands); got > max {
				t.Fatalf("%s: candidate pool %d exceeds bound %d", label, got, max)
			}
			sameSelection(t, ts.Select(), bruteSelect(all, ts.Threshold(), max), label)
		}
	}
}

// TestBoundedSamplerMergeMatchesExact: bounded per-shard samplers must
// merge to the brute-force selection over the concatenated offers of
// every shard (sequence numbers rebased shard by shard, as the merge
// does), with the merged pool still bounded.
func TestBoundedSamplerMergeMatchesExact(t *testing.T) {
	const shards, perShard, max = 4, 1500, 12
	var samplers []*TailSampler
	var all []Exemplar
	for s := 0; s < shards; s++ {
		ts := NewTailSampler(TailConfig{Percentile: 0.99, MaxExemplars: max})
		for _, e := range offerStream(ts, int64(100+s), perShard) {
			e.Seq += s * perShard
			all = append(all, e)
		}
		samplers = append(samplers, ts)
	}
	merged := MergeTailSamplers(samplers...)
	if merged.Offered() != len(all) {
		t.Fatalf("merged offered %d, want %d", merged.Offered(), len(all))
	}
	if got := len(merged.cands); got > max {
		t.Fatalf("merged candidate pool %d exceeds bound %d", got, max)
	}
	sameSelection(t, merged.Select(), bruteSelect(all, merged.Threshold(), max), "merged")
}
