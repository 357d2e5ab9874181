package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fesplit/internal/stats"
)

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		ClassPopular: "popular", ClassGranular: "granular",
		ClassComplex: "complex", ClassMixed: "mixed", Class(9): "class(9)",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%v.String() = %q, want %q", uint8(c), c.String(), s)
		}
	}
	if len(Classes()) != 4 {
		t.Fatalf("Classes() = %v", Classes())
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1, g2 := NewGenerator(5), NewGenerator(5)
	for i := 0; i < 50; i++ {
		a, b := g1.Query(ClassGranular), g2.Query(ClassGranular)
		if a.Keywords != b.Keywords || a.Rank != b.Rank {
			t.Fatalf("generators diverged at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestQueryTermRanges(t *testing.T) {
	g := NewGenerator(1)
	ranges := map[Class][2]int{
		ClassPopular:  {1, 2},
		ClassGranular: {3, 6},
		ClassComplex:  {6, 10},
		ClassMixed:    {2, 4},
	}
	for class, r := range ranges {
		for i := 0; i < 200; i++ {
			q := g.Query(class)
			if q.Terms < r[0] || q.Terms > r[1] {
				t.Fatalf("%v query has %d terms, want %v", class, q.Terms, r)
			}
			if got := len(strings.Fields(q.Keywords)); got != q.Terms {
				t.Fatalf("keyword %q has %d fields, Terms=%d", q.Keywords, got, q.Terms)
			}
		}
	}
}

func TestPopularQueriesHaveLowRanks(t *testing.T) {
	g := NewGenerator(2)
	for i := 0; i < 500; i++ {
		if q := g.Query(ClassPopular); q.Rank >= NumRanks/100 {
			t.Fatalf("popular query rank %d beyond head", q.Rank)
		}
		if q := g.Query(ClassMixed); q.Rank < NumRanks/2 {
			t.Fatalf("mixed query rank %d in head", q.Rank)
		}
	}
}

func TestQueryIDsUnique(t *testing.T) {
	g := NewGenerator(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		q := g.Query(ClassComplex)
		if seen[q.ID] {
			t.Fatalf("duplicate query ID %d", q.ID)
		}
		seen[q.ID] = true
	}
}

func TestCorpusLength(t *testing.T) {
	g := NewGenerator(4)
	c := g.Corpus(77, ClassPopular)
	if len(c) != 77 {
		t.Fatalf("corpus len = %d", len(c))
	}
}

func TestDistinctQueriesAreDistinct(t *testing.T) {
	g := NewGenerator(5)
	qs := g.DistinctQueries(500)
	seen := map[string]bool{}
	for _, q := range qs {
		if seen[q.Keywords] {
			t.Fatalf("duplicate keywords %q", q.Keywords)
		}
		seen[q.Keywords] = true
	}
}

func TestQueryPathRoundTrip(t *testing.T) {
	q := Query{ID: 7, Class: ClassComplex, Keywords: "computer science department", Terms: 3, Rank: 102}
	got, err := ParsePath(q.Path())
	if err != nil {
		t.Fatal(err)
	}
	if got != q {
		t.Fatalf("round trip = %+v, want %+v", got, q)
	}
}

func TestParsePathErrors(t *testing.T) {
	for _, bad := range []string{"/other?q=x", "/search", "/search?c=1", "%zz"} {
		if _, err := ParsePath(bad); err == nil {
			t.Fatalf("ParsePath(%q) accepted", bad)
		}
	}
}

func TestParsePathGeneratedQueries(t *testing.T) {
	g := NewGenerator(11)
	for _, c := range Classes() {
		for i := 0; i < 50; i++ {
			q := g.Query(c)
			got, err := ParsePath(q.Path())
			if err != nil {
				t.Fatalf("ParsePath(%q): %v", q.Path(), err)
			}
			if got != q {
				t.Fatalf("round trip = %+v, want %+v", got, q)
			}
		}
	}
}

func TestStaticPrefixExactSizeAndStable(t *testing.T) {
	spec := DefaultContentSpec("bing-like")
	a, b := spec.StaticPrefix(), spec.StaticPrefix()
	if len(a) != spec.StaticSize {
		t.Fatalf("static size = %d, want %d", len(a), spec.StaticSize)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("static prefix not deterministic")
	}
	for _, marker := range []string{"<!DOCTYPE html>", "Videos", "News", "Shopping", "<style>"} {
		if !bytes.Contains(a, []byte(marker)) {
			t.Fatalf("static prefix lacks %q", marker)
		}
	}
}

func TestStaticPrefixDiffersAcrossServices(t *testing.T) {
	a := DefaultContentSpec("google-like").StaticPrefix()
	b := DefaultContentSpec("bing-like").StaticPrefix()
	if bytes.Equal(a, b) {
		t.Fatal("different services share a static prefix")
	}
}

func TestDynamicBodyDependsOnQuery(t *testing.T) {
	spec := DefaultContentSpec("svc")
	g := NewGenerator(6)
	q1, q2 := g.Query(ClassGranular), g.Query(ClassGranular)
	rng := stats.NewRand(1)
	b1 := spec.DynamicBody(q1, rng)
	b2 := spec.DynamicBody(q2, rng)
	if bytes.Equal(b1, b2) {
		t.Fatal("distinct queries produced identical dynamic bodies")
	}
	if !bytes.Contains(b1, []byte(q1.Keywords)) {
		t.Fatal("dynamic body lacks its keywords")
	}
}

// dynamicBodyRef is the original fmt.Fprintf implementation of
// DynamicBody, kept as a readable reference. The differential test
// below pins the allocation-free production version to it byte for
// byte (including rng call order — both draw from the same stream).
func dynamicBodyRef(s ContentSpec, q Query, rng *rand.Rand) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `<div id="dynmenu">related: %s images, %s news</div>`+"\n", q.Keywords, q.Keywords)
	target := s.DynamicSize(q)
	i := 0
	for b.Len() < target-128 {
		i++
		if rng.Float64() < 0.15 {
			fmt.Fprintf(&b, `<div class="ad">Ad %d — buy %s now! sponsored-link-%06d</div>`+"\n",
				i, q.Keywords, rng.Intn(1e6))
			continue
		}
		fmt.Fprintf(&b, `<div class="res"><a href="http://example-%06d.org/%d">%s — result %d</a>`,
			rng.Intn(1e6), q.ID, q.Keywords, i)
		fmt.Fprintf(&b, `<span class="url">example-%06d.org</span><p>snippet about %s`,
			rng.Intn(1e6), q.Keywords)
		n := 40 + rng.Intn(120)
		for j := 0; j < n; j++ {
			b.WriteByte(byte('a' + (i+j)%26))
		}
		b.WriteString("</p></div>\n")
	}
	fmt.Fprintf(&b, "</div>\n</body>\n</html>\n<!-- qid=%d -->", q.ID)
	return b.Bytes()
}

func TestDynamicBodyMatchesReference(t *testing.T) {
	for _, svc := range []string{"google-like", "bing-like"} {
		spec := DefaultContentSpec(svc)
		g := NewGenerator(11)
		for _, class := range []Class{ClassGranular, ClassComplex, ClassPopular} {
			for k := 0; k < 8; k++ {
				q := g.Query(class)
				got := spec.DynamicBody(q, stats.NewRand(int64(q.ID)))
				want := dynamicBodyRef(spec, q, stats.NewRand(int64(q.ID)))
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %v q=%d: DynamicBody diverges from fmt reference\ngot  %q\nwant %q",
						svc, class, q.ID, got, want)
				}
			}
		}
	}
}

// TestDynamicLenMatchesBody is the length-only contract: DynamicLen
// returns exactly len(DynamicBody) and leaves the generator in the same
// state, so a back end that never builds a body draws its cost and load
// processes from the same stream positions as one that does.
func TestDynamicLenMatchesBody(t *testing.T) {
	specs := []ContentSpec{
		DefaultContentSpec("google-like"),
		{ServiceName: "tiny", StaticSize: 64, DynamicBase: 40, DynamicPerTerm: 3},
		{ServiceName: "large", StaticSize: 64 << 10, DynamicBase: 300 << 10, DynamicPerTerm: 4096},
	}
	// Multi-byte keywords: the interactive cell slices a phrase by runes,
	// and the ad/result templates themselves carry a 3-byte dash.
	keywords := []string{"", "café", "naïve — search", "日本語 検索", "x"}
	ids := []int{0, 7, 10, 99, 100, 4321, 99999, 100000, 1234567, 9999999}
	g := NewGenerator(19)
	cases := 0
	for si, spec := range specs {
		per := 300
		if spec.ServiceName == "large" {
			per = 12 // 300 KB bodies: fewer, still every class
		}
		for _, class := range Classes() {
			for k := 0; k < per; k++ {
				q := g.Query(class)
				if k%2 == 1 {
					q.Keywords = keywords[k/2%len(keywords)]
				}
				q.ID = ids[k%len(ids)]
				seed := int64(si*1e6 + int(class)*1e4 + k)
				r1, r2 := stats.NewRand(seed), stats.NewRand(seed)
				got, want := spec.DynamicLen(q, r1), len(spec.DynamicBody(q, r2))
				if got != want {
					t.Fatalf("%s %v q=%+v: DynamicLen = %d, len(DynamicBody) = %d",
						spec.ServiceName, class, q, got, want)
				}
				if r1.Int63() != r2.Int63() {
					t.Fatalf("%s %v q=%+v: rng streams diverge after the call",
						spec.ServiceName, class, q)
				}
				cases++
			}
		}
	}
	if cases < 2000 {
		t.Fatalf("only %d cases", cases)
	}
}

func TestDynamicBodyNearTargetSize(t *testing.T) {
	spec := DefaultContentSpec("svc")
	g := NewGenerator(7)
	rng := stats.NewRand(2)
	for i := 0; i < 20; i++ {
		q := g.Query(ClassComplex)
		body := spec.DynamicBody(q, rng)
		target := spec.DynamicSize(q)
		if len(body) < target-512 || len(body) > target+512 {
			t.Fatalf("body size %d, target %d", len(body), target)
		}
	}
}

func TestDynamicSizeGrowsWithTerms(t *testing.T) {
	spec := DefaultContentSpec("svc")
	small := Query{Terms: 1}
	large := Query{Terms: 10}
	if spec.DynamicSize(large) <= spec.DynamicSize(small) {
		t.Fatal("dynamic size not increasing with terms")
	}
}

func TestCostModelComplexityEffect(t *testing.T) {
	m := CostModel{Base: 50 * time.Millisecond, PerTerm: 20 * time.Millisecond}
	rng := stats.NewRand(3)
	short := m.Sample(Query{Terms: 1, Rank: NumRanks - 1}, 0, rng)
	long := m.Sample(Query{Terms: 10, Rank: NumRanks - 1}, 0, rng)
	if long <= short {
		t.Fatalf("complex query not slower: %v vs %v", long, short)
	}
	if short != 70*time.Millisecond {
		t.Fatalf("deterministic (CV=0) sample = %v, want 70ms", short)
	}
}

func TestCostModelPopularDiscount(t *testing.T) {
	m := CostModel{Base: 100 * time.Millisecond, PopularDiscount: 0.5}
	rng := stats.NewRand(4)
	popular := m.Sample(Query{Terms: 0, Rank: 0}, 0, rng)
	obscure := m.Sample(Query{Terms: 0, Rank: NumRanks - 1}, 0, rng)
	if popular != 50*time.Millisecond || obscure != 100*time.Millisecond {
		t.Fatalf("discount wrong: popular=%v obscure=%v", popular, obscure)
	}
}

func TestCostModelLoadEffect(t *testing.T) {
	m := CostModel{Base: 100 * time.Millisecond, LoadAmplitude: 0.5}
	rng := stats.NewRand(5)
	idle := m.Sample(Query{Rank: NumRanks - 1}, 0, rng)
	busy := m.Sample(Query{Rank: NumRanks - 1}, 1, rng)
	if busy <= idle {
		t.Fatalf("load had no effect: %v vs %v", busy, idle)
	}
	if busy != 150*time.Millisecond {
		t.Fatalf("busy = %v, want 150ms", busy)
	}
}

func TestCostModelVariability(t *testing.T) {
	m := CostModel{Base: 250 * time.Millisecond, CV: 0.4}
	rng := stats.NewRand(6)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = float64(m.Sample(Query{Rank: NumRanks - 1}, 0, rng)) / float64(time.Millisecond)
	}
	mean := stats.Mean(xs)
	if mean < 230 || mean > 270 {
		t.Fatalf("mean = %v ms, want ~250", mean)
	}
	cv := stats.StdDev(xs) / mean
	if cv < 0.3 || cv > 0.5 {
		t.Fatalf("cv = %v, want ~0.4", cv)
	}
}

func TestCostModelFloor(t *testing.T) {
	m := CostModel{Base: 0, PerTerm: 0}
	rng := stats.NewRand(7)
	if got := m.Sample(Query{}, -10, rng); got < time.Millisecond {
		t.Fatalf("sample below floor: %v", got)
	}
}

func TestSharedStaticPrefixAcrossQueries(t *testing.T) {
	// The property the analyzer relies on: all responses from one
	// service share the static prefix, and the first difference occurs
	// at exactly StaticSize.
	spec := DefaultContentSpec("svc")
	g := NewGenerator(8)
	rng := stats.NewRand(9)
	static := spec.StaticPrefix()
	q1, q2 := g.Query(ClassPopular), g.Query(ClassComplex)
	full1 := append(append([]byte{}, static...), spec.DynamicBody(q1, rng)...)
	full2 := append(append([]byte{}, static...), spec.DynamicBody(q2, rng)...)
	lcp := 0
	for lcp < len(full1) && lcp < len(full2) && full1[lcp] == full2[lcp] {
		lcp++
	}
	if lcp < spec.StaticSize {
		t.Fatalf("LCP %d < static size %d", lcp, spec.StaticSize)
	}
	// The dynamic parts must diverge quickly (within a menu line).
	if lcp > spec.StaticSize+64 {
		t.Fatalf("LCP %d extends deep into dynamic content", lcp)
	}
}

// FuzzParsePath hardens the wire-path parser: arbitrary paths must
// error or parse, never panic, and agree with the net/url reference.
func FuzzParsePath(f *testing.F) {
	f.Add("/search?q=computer+science&c=1&r=10&id=3")
	f.Add("/search?q=")
	f.Add("/other")
	f.Add("%zz")
	f.Add("/search?q=a&r=-1&c=999")
	f.Add("/search?q&q=a&c=+1&id=2&id=3&r=4+")
	f.Add("http://h:80/%73earch?q=a%20b#f")
	f.Fuzz(func(t *testing.T, path string) {
		q, err := ParsePath(path)
		if err == nil && q.Keywords == "" {
			t.Fatal("parsed query without keywords")
		}
		checkParsePath(t, path)
	})
}

// TestGeneratorsSharePopularity: every Generator draws from the one
// process-wide popularity table, the shared table yields the queries a
// freshly built one does, a Generator costs only its RNG and itself,
// and concurrent Generators may draw from the table at once.
func TestGeneratorsSharePopularity(t *testing.T) {
	a, b := NewGenerator(1), NewGenerator(2)
	if a.zipf != b.zipf {
		t.Fatal("generators hold separate popularity tables")
	}
	shared := NewGenerator(11)
	fresh := &Generator{rng: stats.NewRand(11), zipf: stats.NewZipf(NumRanks, 1.01)}
	for i := 0; i < 10000; i++ {
		c := Class(i % 4)
		if got, want := shared.Query(c), fresh.Query(c); got != want {
			t.Fatalf("query %d: shared table %+v, fresh table %+v", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = NewGenerator(3) }); n > 3 {
		t.Fatalf("NewGenerator allocates %.0f times, want ≤ 3 (RNG source, RNG, generator)", n)
	}
	ranks := func(seed int64) []int {
		g := NewGenerator(seed)
		out := make([]int, 1000)
		for i := range out {
			out[i] = g.Query(ClassGranular).Rank
		}
		return out
	}
	serial := [][]int{ranks(0), ranks(1)}
	var concurrent [2][]int
	var wg sync.WaitGroup
	for i := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = ranks(int64(i))
		}()
	}
	wg.Wait()
	for i := range concurrent {
		if !slices.Equal(concurrent[i], serial[i]) {
			t.Fatalf("generator %d drew different ranks concurrently", i)
		}
	}
}
