package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// arenaTree builds a representative query tree (root + attrs + nested
// children) out of a, parameterized by i so trees are distinguishable.
func arenaTree(a *SpanArena, i int) *Span {
	base := time.Duration(i) * time.Second
	root := a.NewSpan("query", "client", ConnKey{Remote: "fe", LocalPort: uint16(i), RemotePort: 80}, base, base+time.Millisecond)
	root.SetAttr("idx", fmt.Sprint(i))
	h := a.Child(root, "tcp-handshake", base, base+100*time.Microsecond)
	h.SetAttr("rtt", "100us")
	d := a.Child(root, "delivery", base+100*time.Microsecond, base+time.Millisecond)
	a.Child(d, "fe-fetch", base+200*time.Microsecond, base+800*time.Microsecond)
	return root
}

// heapTree is arenaTree built from plain heap allocations, the
// reference shape Clone must reproduce.
func heapTree(i int) *Span {
	base := time.Duration(i) * time.Second
	root := &Span{Name: "query", Track: "client", Key: ConnKey{Remote: "fe", LocalPort: uint16(i), RemotePort: 80}, Start: base, End: base + time.Millisecond}
	root.SetAttr("idx", fmt.Sprint(i))
	h := root.Child("tcp-handshake", base, base+100*time.Microsecond)
	h.SetAttr("rtt", "100us")
	d := root.Child("delivery", base+100*time.Microsecond, base+time.Millisecond)
	d.Child("fe-fetch", base+200*time.Microsecond, base+800*time.Microsecond)
	return root
}

func TestSpanArenaTreesMatchHeapTrees(t *testing.T) {
	a := new(SpanArena)
	for i := 0; i < 10; i++ {
		got := arenaTree(a, i)
		if !reflect.DeepEqual(got, heapTree(i)) {
			t.Fatalf("arena tree %d differs from heap tree", i)
		}
	}
}

// TestSpanArenaResetReuses: after Reset the arena hands out the same
// node capacity again instead of growing, and rebuilt trees are intact.
func TestSpanArenaResetReuses(t *testing.T) {
	a := new(SpanArena)
	for i := 0; i < 100; i++ {
		arenaTree(a, i)
	}
	capAfterWarmup := a.Cap()
	for round := 0; round < 50; round++ {
		a.Reset()
		for i := 0; i < 100; i++ {
			got := arenaTree(a, i)
			if got.Name != "query" || len(got.Children) != 2 || len(got.Attrs) != 1 {
				t.Fatalf("round %d tree %d corrupted after reset: %+v", round, i, got)
			}
		}
		if a.Cap() != capAfterWarmup {
			t.Fatalf("round %d: arena grew from %d to %d nodes despite identical load", round, capAfterWarmup, a.Cap())
		}
	}
}

// TestSpanCloneIndependent: a clone shares no memory with the original —
// mutating (or arena-recycling) the source must not disturb the clone.
func TestSpanCloneIndependent(t *testing.T) {
	a := new(SpanArena)
	src := arenaTree(a, 7)
	clone := src.Clone()
	if !reflect.DeepEqual(clone, heapTree(7)) {
		t.Fatalf("clone differs from reference tree")
	}
	// Recycle the arena under different trees; the clone must survive.
	a.Reset()
	for i := 0; i < 50; i++ {
		arenaTree(a, 1000+i)
	}
	if !reflect.DeepEqual(clone, heapTree(7)) {
		t.Fatalf("clone corrupted by arena reuse")
	}
	if (*Span)(nil).Clone() != nil {
		t.Fatalf("nil clone should be nil")
	}
}

// offerStream drives a pseudo-random stream of offers into ts — with
// per-offer arena recycling when recycled, exactly a streaming
// campaign's usage, as fresh heap trees otherwise — and returns every
// offer made, spans as independent heap trees, for bruteSelect to
// choose from.
func offerStream(ts *TailSampler, seed int64, n int, recycled bool) []Exemplar {
	rng := rand.New(rand.NewSource(seed))
	a := new(SpanArena)
	all := make([]Exemplar, n)
	for i := range all {
		v := rng.ExpFloat64() * 0.1
		viol := rng.Intn(400) == 0
		all[i] = Exemplar{Value: v, Violation: viol, Span: heapTree(i), Seq: i}
		tree := heapTree(i)
		if recycled {
			a.Reset()
			tree = arenaTree(a, i)
		}
		ts.OfferTransient(v, viol, tree)
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
// exactly what a brute-force pass over every offer selects, for heap
// trees and recycled arena trees alike, while never holding more than
// MaxExemplars non-violation candidates.
func TestBoundedSamplerMatchesExact(t *testing.T) {
	const n = 5000
	for _, seed := range []int64{1, 2, 3} {
		for _, recycled := range []bool{false, true} {
			for _, max := range []int{1, 16, 64, 500} {
				ts := NewTailSampler(TailConfig{Percentile: 0.99, MaxExemplars: max})
				all := offerStream(ts, seed, n, recycled)
				label := fmt.Sprintf("seed %d recycled %v max %d", seed, recycled, max)
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
		for _, e := range offerStream(ts, int64(100+s), perShard, true) {
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
