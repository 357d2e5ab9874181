package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// relErr returns |got-want|/want, treating a zero want as absolute.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func TestSketchQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, alpha := range []float64{0.005, 0.01, 0.05} {
		sk := NewSketch(alpha)
		xs := make([]float64, 0, 5000)
		for i := 0; i < 5000; i++ {
			// Lognormal-ish latencies spanning several decades, the
			// shape the obs layer actually records.
			v := math.Exp(rng.NormFloat64()*1.5 - 3)
			sk.Add(v)
			xs = append(xs, v)
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			got := sk.Quantile(q)
			want := Quantile(xs, q)
			// Interpolated exact quantiles sit between order statistics;
			// allow 2·alpha to cover interpolation plus bucket rounding.
			if relErr(got, want) > 2*alpha {
				t.Errorf("alpha=%v q=%v: sketch %v vs exact %v (relerr %.4f)",
					alpha, q, got, want, relErr(got, want))
			}
		}
	}
}

// TestSketchMergeOrderIndependent is the property test: merging a set
// of per-shard sketches in any order yields identical quantiles and
// counts, so fleet-wide aggregation is deterministic no matter how the
// export walks the shards.
func TestSketchMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const shards = 7
	parts := make([]*Sketch, shards)
	for i := range parts {
		parts[i] = NewSketch(0.01)
		for k := 0; k < 200+i*37; k++ {
			parts[i].Add(math.Exp(rng.NormFloat64()))
		}
	}
	merge := func(order []int) *Sketch {
		m := NewSketch(0.01)
		for _, i := range order {
			m.Merge(parts[i])
		}
		return m
	}
	base := merge([]int{0, 1, 2, 3, 4, 5, 6})
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(shards)
		m := merge(order)
		if m.Count() != base.Count() || m.ZeroCount() != base.ZeroCount() {
			t.Fatalf("order %v: count %d/%d vs %d/%d",
				order, m.Count(), m.ZeroCount(), base.Count(), base.ZeroCount())
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			if got, want := m.Quantile(q), base.Quantile(q); got != want {
				t.Fatalf("order %v: quantile(%v) = %v, want %v", order, q, got, want)
			}
		}
		if relErr(m.Sum(), base.Sum()) > 1e-12 {
			t.Fatalf("order %v: sum %v vs %v", order, m.Sum(), base.Sum())
		}
	}
	// Merged quantiles must also stay within the accuracy bound of the
	// pooled exact quantiles.
	var all []float64
	rng2 := rand.New(rand.NewSource(11))
	for i := 0; i < shards; i++ {
		for k := 0; k < 200+i*37; k++ {
			all = append(all, math.Exp(rng2.NormFloat64()))
		}
	}
	for _, q := range []float64{0.25, 0.5, 0.95, 0.99} {
		if got, want := base.Quantile(q), Quantile(all, q); relErr(got, want) > 2*0.01 {
			t.Errorf("merged quantile(%v) = %v, exact %v", q, got, want)
		}
	}
}

func TestSketchEdgeCases(t *testing.T) {
	sk := NewSketch(0.01)
	if sk.Quantile(0.5) != 0 || sk.Count() != 0 || sk.Min() != 0 || sk.Max() != 0 || sk.Mean() != 0 {
		t.Fatal("empty sketch must read zero")
	}
	sk.Add(0)
	sk.Add(-3) // clamps to the zero bucket
	sk.Add(5e-10)
	if sk.ZeroCount() != 3 || sk.Quantile(0.5) != 0 {
		t.Fatalf("zero bucket count = %d, q50 = %v", sk.ZeroCount(), sk.Quantile(0.5))
	}
	sk.Add(math.NaN()) // ignored
	if sk.Count() != 3 {
		t.Fatalf("NaN must be ignored, count = %d", sk.Count())
	}
	sk.Add(2.5)
	if got := sk.Quantile(1); got != 2.5 {
		t.Fatalf("max quantile = %v, want exact max 2.5", got)
	}
	if got := sk.Quantile(0); got != 0 {
		t.Fatalf("min quantile = %v, want 0", got)
	}

	one := NewSketch(0.01)
	one.Add(42)
	for _, q := range []float64{0, 0.5, 1} {
		if relErr(one.Quantile(q), 42) > 0.01 {
			t.Fatalf("single-value quantile(%v) = %v", q, one.Quantile(q))
		}
	}

	// Mean is exact (true running sum), not a bucket estimate.
	m := NewSketch(0.01)
	for _, v := range []float64{1, 2, 3, 10} {
		m.Add(v)
	}
	if got := m.Mean(); got != 4 {
		t.Fatalf("mean = %v, want exactly 4", got)
	}
}

func TestSketchMergeAlphaMismatchPanics(t *testing.T) {
	a, b := NewSketch(0.01), NewSketch(0.02)
	b.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched alphas must panic")
		}
	}()
	a.Merge(b)
}

func TestSketchRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sk := NewSketch(0.02)
	for i := 0; i < 1000; i++ {
		sk.Add(rng.Float64() * 100)
	}
	sk.Add(0)
	got, err := RestoreSketch(sk.Alpha(), sk.ZeroCount(), sk.Sum(), sk.Min(), sk.Max(), sk.Buckets())
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != sk.Count() || got.Sum() != sk.Sum() ||
		got.Min() != sk.Min() || got.Max() != sk.Max() {
		t.Fatalf("restore lost state: %+v vs %+v", got, sk)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
		if got.Quantile(q) != sk.Quantile(q) {
			t.Fatalf("restore quantile(%v) = %v, want %v", q, got.Quantile(q), sk.Quantile(q))
		}
	}
}

// mapSketch is the reference for the dense store: the bucket counts in
// a map, sorted on every read, as the sketch kept them before. It
// borrows only index and bucketValue from a Sketch of the same alpha.
type mapSketch struct {
	geo         *Sketch
	counts      map[int]uint64
	zero, count uint64
	sum         float64
	min, max    float64
}

func newMapSketch(alpha float64) *mapSketch {
	return &mapSketch{geo: NewSketch(alpha), counts: map[int]uint64{}, min: math.Inf(1), max: math.Inf(-1)}
}

func (m *mapSketch) add(v float64) {
	if v < 0 {
		v = 0
	}
	m.count++
	m.sum += v
	m.min, m.max = math.Min(m.min, v), math.Max(m.max, v)
	if v < minIndexable {
		m.zero++
		return
	}
	m.counts[m.geo.index(v)]++
}

func (m *mapSketch) merge(o *mapSketch) {
	for i, c := range o.counts {
		m.counts[i] += c
	}
	m.zero += o.zero
	m.count += o.count
	m.sum += o.sum
	m.min, m.max = math.Min(m.min, o.min), math.Max(m.max, o.max)
}

func (m *mapSketch) buckets() []Bucket {
	out := make([]Bucket, 0, len(m.counts))
	for i, c := range m.counts {
		out = append(out, Bucket{Index: i, Count: c})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

func (m *mapSketch) quantile(q float64) float64 {
	clamp := func(v float64) float64 { return math.Max(m.min, math.Min(m.max, v)) }
	rank := q * float64(m.count-1)
	if rank < float64(m.zero) {
		return 0
	}
	cum, last := float64(m.zero), 0.0
	for _, b := range m.buckets() {
		cum += float64(b.Count)
		last = m.geo.bucketValue(b.Index)
		if rank < cum {
			return clamp(last)
		}
	}
	return clamp(last)
}

// TestSketchMatchesMapReference feeds random streams into the dense
// store and the map reference — single streams, merges of index ranges
// that do not touch (in both orders, so the store widens downward and
// upward), values below minIndexable, and a restore from Buckets — and
// requires the same buckets, quantiles, count and sum.
func TestSketchMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	draw := func(lo, hi float64) float64 {
		switch rng.Intn(10) {
		case 0:
			return rng.Float64() * minIndexable // the zero bucket
		case 1:
			return -rng.Float64()
		}
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	check := func(name string, got *Sketch, want *mapSketch) {
		t.Helper()
		gb, wb := got.Buckets(), want.buckets()
		if len(gb) != len(wb) {
			t.Fatalf("%s: %d buckets, reference %d", name, len(gb), len(wb))
		}
		for i := range gb {
			if gb[i] != wb[i] {
				t.Fatalf("%s: bucket %d = %+v, reference %+v", name, i, gb[i], wb[i])
			}
		}
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			if g, w := got.Quantile(q), want.quantile(q); g != w {
				t.Fatalf("%s: quantile(%v) = %v, reference %v", name, q, g, w)
			}
		}
		if got.Count() != want.count || got.Sum() != want.sum || got.ZeroCount() != want.zero {
			t.Fatalf("%s: count/zero/sum %d/%d/%v, reference %d/%d/%v",
				name, got.Count(), got.ZeroCount(), got.Sum(), want.count, want.zero, want.sum)
		}
	}
	for trial := 0; trial < 50; trial++ {
		alpha := []float64{0.005, 0.01, 0.02, 0.05}[trial%4]
		ranges := [][2]float64{{1e-6, 1e-5}, {0.01, 2}, {50, 1e4}}
		parts := make([]*Sketch, len(ranges))
		refs := make([]*mapSketch, len(ranges))
		for p, r := range ranges {
			parts[p], refs[p] = NewSketch(alpha), newMapSketch(alpha)
			for k := rng.Intn(300); k > 0; k-- {
				v := draw(r[0], r[1])
				parts[p].Add(v)
				refs[p].add(v)
			}
			check("stream", parts[p], refs[p])
		}
		for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
			got, want := NewSketch(alpha), newMapSketch(alpha)
			for _, p := range order {
				got.Merge(parts[p])
				want.merge(refs[p])
			}
			check("merge", got, want)
			back, err := RestoreSketch(alpha, got.ZeroCount(), got.Sum(), got.Min(), got.Max(), got.Buckets())
			if err != nil {
				t.Fatal(err)
			}
			check("restore", back, want)
		}
	}
}

// TestSketchInfLandsInTopBucket pins where +Inf goes: the top bucket
// the sketch can index, that of math.MaxFloat64, which a restore
// accepts. Sum and Max read +Inf.
func TestSketchInfLandsInTopBucket(t *testing.T) {
	sk := NewSketch(DefaultSketchAlpha)
	sk.Add(1)
	sk.Add(math.Inf(1))
	b := sk.Buckets()
	if top := sk.index(math.MaxFloat64); len(b) != 2 || b[1] != (Bucket{Index: top, Count: 1}) {
		t.Fatalf("buckets = %+v, want +Inf in bucket %d", b, top)
	}
	if !math.IsInf(sk.Sum(), 1) || !math.IsInf(sk.Max(), 1) {
		t.Fatalf("sum %v, max %v: want +Inf", sk.Sum(), sk.Max())
	}
	if _, err := RestoreSketch(sk.Alpha(), 0, 0, 1, 1, b); err != nil {
		t.Fatalf("restoring the top bucket: %v", err)
	}
}

// TestSketchZeroAlloc pins the hot path: AddN inside the store's
// current range and Quantile allocate nothing.
func TestSketchZeroAlloc(t *testing.T) {
	sk := NewSketch(DefaultSketchAlpha)
	sk.Add(1e-3)
	sk.Add(10)
	if n := testing.AllocsPerRun(100, func() {
		sk.AddN(0.5, 3)
		sk.Add(2e-3)
		sk.Add(0) // the zero bucket
	}); n != 0 {
		t.Errorf("AddN inside the range allocated %v objects per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sk.Quantile(0.99) }); n != 0 {
		t.Errorf("Quantile allocated %v objects per run, want 0", n)
	}
}

// benchValues are lognormal latencies in seconds, the shape the obs
// layer records.
func benchValues() []float64 {
	rng := rand.New(rand.NewSource(1))
	vs := make([]float64, 4096)
	for i := range vs {
		vs[i] = math.Exp(rng.NormFloat64()*1.5 - 3)
	}
	return vs
}

var sinkQuantile float64

func BenchmarkSketchAdd(b *testing.B) {
	vs := benchValues()
	sk := NewSketch(DefaultSketchAlpha)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Add(vs[i%len(vs)])
	}
}

func BenchmarkSketchQuantile(b *testing.B) {
	sk := NewSketch(DefaultSketchAlpha)
	for _, v := range benchValues() {
		sk.Add(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkQuantile = sk.Quantile(0.99)
	}
}
