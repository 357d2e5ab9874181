package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// population variance is 4; sample variance is 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEq(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("Variance of single sample should be 0")
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{9, 1, 5}
	Median(xs)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Quantile(xs, 0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 40 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 25 {
		t.Fatalf("q0.5 = %v, want 25", got)
	}
	// Clamping.
	if got := Quantile(xs, -3); got != 10 {
		t.Fatalf("q(-3) = %v, want 10", got)
	}
	if got := Quantile(xs, 7); got != 40 {
		t.Fatalf("q(7) = %v, want 40", got)
	}
}

func TestQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := Quantile(xs, q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestSummarizeOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Q1 && s.Q1 <= s.Median &&
			s.Median <= s.Q3 && s.Q3 <= s.Max &&
			s.N == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoxPlotWhiskersWithinFences(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	xs = append(xs, 50, -50) // definite outliers
	bp := BoxPlotOf(xs)
	if len(bp.Outliers) < 2 {
		t.Fatalf("expected injected outliers detected, got %v", bp.Outliers)
	}
	iqr := bp.Q3 - bp.Q1
	if bp.WhiskerLow < bp.Q1-1.5*iqr || bp.WhiskerHigh > bp.Q3+1.5*iqr {
		t.Fatalf("whiskers outside Tukey fences: %+v", bp)
	}
	if bp.WhiskerLow > bp.Q1 || bp.WhiskerHigh < bp.Q3 {
		t.Fatalf("whiskers inside the box: %+v", bp)
	}
}

func TestBoxPlotEmpty(t *testing.T) {
	bp := BoxPlotOf(nil)
	if bp.Median != 0 || len(bp.Outliers) != 0 {
		t.Fatalf("empty boxplot should be zero: %+v", bp)
	}
}

func TestMovingMedianWindowOne(t *testing.T) {
	xs := []float64{5, 3, 8}
	got := MovingMedian(xs, 1)
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("window-1 moving median must equal input: %v", got)
		}
	}
}

func TestMovingMedianSmooths(t *testing.T) {
	// A single spike in constant data must vanish once the window has
	// more non-spike than spike samples.
	xs := []float64{10, 10, 10, 100, 10, 10, 10}
	got := MovingMedian(xs, 3)
	for i, v := range got {
		if v != 10 {
			t.Fatalf("spike leaked through moving median at %d: %v", i, got)
		}
	}
}

func TestMovingMedianLength(t *testing.T) {
	f := func(xs []float64, w uint8) bool {
		got := MovingMedian(xs, int(w))
		return len(got) == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	if got := e.At(0); got != 0 {
		t.Fatalf("F(0) = %v", got)
	}
	if got := e.At(2); got != 0.75 {
		t.Fatalf("F(2) = %v, want 0.75", got)
	}
	if got := e.At(3); got != 1 {
		t.Fatalf("F(3) = %v, want 1", got)
	}
	if got := e.At(99); got != 1 {
		t.Fatalf("F(99) = %v, want 1", got)
	}
}

func TestECDFQuantileInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = rng.Float64() * 10
	}
	e := NewECDF(xs)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9} {
		v := e.Quantile(q)
		if e.At(v) < q {
			t.Fatalf("F(Quantile(%v)) = %v < %v", q, e.At(v), q)
		}
	}
}

func TestECDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		e := NewECDF(xs)
		sort.Float64s(xs)
		prev := 0.0
		for _, x := range xs {
			v := e.At(x)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKSIdenticalAndDisjoint(t *testing.T) {
	a := NewECDF([]float64{1, 2, 3, 4, 5})
	if d := KS(a, a); d != 0 {
		t.Fatalf("KS(a,a) = %v, want 0", d)
	}
	b := NewECDF([]float64{100, 101, 102})
	if d := KS(a, b); d != 1 {
		t.Fatalf("KS disjoint = %v, want 1", d)
	}
}

func TestKSSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func(off float64) *ECDF {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = rng.NormFloat64() + off
		}
		return NewECDF(xs)
	}
	a, b := mk(0), mk(0.5)
	if d1, d2 := KS(a, b), KS(b, a); !almostEq(d1, d2, 1e-12) {
		t.Fatalf("KS not symmetric: %v vs %v", d1, d2)
	}
}

func TestLinRegExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5*x + 7
	}
	f := LinReg(xs, ys)
	if !almostEq(f.Slope, 2.5, 1e-12) || !almostEq(f.Intercept, 7, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
	if !almostEq(f.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
}

func TestLinRegNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 0.08*xs[i] + 260 + rng.NormFloat64()*5
	}
	f := LinReg(xs, ys)
	if !almostEq(f.Slope, 0.08, 0.005) {
		t.Fatalf("slope = %v, want ~0.08", f.Slope)
	}
	if !almostEq(f.Intercept, 260, 5) {
		t.Fatalf("intercept = %v, want ~260", f.Intercept)
	}
	if f.R2 < 0.8 {
		t.Fatalf("R2 = %v too low", f.R2)
	}
}

func TestLinRegDegenerate(t *testing.T) {
	f := LinReg([]float64{5, 5, 5}, []float64{1, 2, 3})
	if f.Slope != 0 || f.Intercept != 2 {
		t.Fatalf("degenerate fit = %+v, want horizontal through mean", f)
	}
	empty := LinReg(nil, nil)
	if empty.N != 0 {
		t.Fatalf("empty fit N = %d", empty.N)
	}
}

func TestLinRegResidualsSumZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ys[i] = 3*xs[i] + rng.NormFloat64()*10
	}
	f := LinReg(xs, ys)
	var s float64
	for i := range xs {
		s += ys[i] - (f.Slope*xs[i] + f.Intercept)
	}
	if !almostEq(s, 0, 1e-6) {
		t.Fatalf("OLS residuals sum to %v, want ~0", s)
	}
}

func TestZipfDistribution(t *testing.T) {
	z := NewZipf(100, 1.0)
	rng := rand.New(rand.NewSource(8))
	counts := make([]int, 100)
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[z.Draw(rng)]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[90] {
		t.Fatalf("Zipf counts not decreasing: c0=%d c10=%d c90=%d",
			counts[0], counts[10], counts[90])
	}
	// Rank-0 mass should match analytic probability within sampling noise.
	p0 := float64(counts[0]) / draws
	if !almostEq(p0, z.Prob(0), 0.01) {
		t.Fatalf("rank0 freq %v vs prob %v", p0, z.Prob(0))
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(50, 1.3)
	var s float64
	for k := 0; k < 50; k++ {
		s += z.Prob(k)
	}
	if !almostEq(s, 1, 1e-9) {
		t.Fatalf("Zipf probs sum to %v", s)
	}
	if z.Prob(-1) != 0 || z.Prob(50) != 0 {
		t.Fatal("out-of-range Prob should be 0")
	}
}

func TestZipfDegenerate(t *testing.T) {
	z := NewZipf(0, 1)
	rng := rand.New(rand.NewSource(9))
	if z.Prob(0) != 1 || z.Draw(rng) != 0 {
		t.Fatalf("n<1 Zipf should collapse to single rank")
	}
}

func TestLogNormalMeanCV(t *testing.T) {
	l := LogNormalFromMeanCV(250, 0.3)
	if m := math.Exp(l.Mu + l.Sigma*l.Sigma/2); !almostEq(m, 250, 1e-9) {
		t.Fatalf("analytic mean = %v, want 250", m)
	}
	rng := rand.New(rand.NewSource(10))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = l.Draw(rng)
	}
	if m := Mean(xs); !almostEq(m, 250, 3) {
		t.Fatalf("empirical mean = %v, want ~250", m)
	}
	cv := StdDev(xs) / Mean(xs)
	if !almostEq(cv, 0.3, 0.02) {
		t.Fatalf("empirical cv = %v, want ~0.3", cv)
	}
}

func TestLogNormalAlwaysPositive(t *testing.T) {
	l := LogNormalFromMeanCV(10, 2)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		if v := l.Draw(rng); v <= 0 {
			t.Fatalf("lognormal drew %v", v)
		}
	}
}

func TestAR1Stationarity(t *testing.T) {
	a := AR1{Phi: 0.9, Sigma: 1}
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = a.Next(rng)
	}
	want := a.StationaryStdDev()
	if sd := StdDev(xs); !almostEq(sd, want, 0.15) {
		t.Fatalf("AR1 stddev = %v, want ~%v", sd, want)
	}
	if m := Mean(xs); !almostEq(m, 0, 0.2) {
		t.Fatalf("AR1 mean = %v, want ~0", m)
	}
}

func TestAR1Value(t *testing.T) {
	a := AR1{Phi: 0.5, Sigma: 0, x: 8}
	if a.Value() != 8 {
		t.Fatal("Value mismatch")
	}
	rng := rand.New(rand.NewSource(13))
	if got := a.Next(rng); got != 4 {
		t.Fatalf("deterministic AR1 step = %v, want 4", got)
	}
}

func TestAR1UnstablePhiStdDev(t *testing.T) {
	a := AR1{Phi: 1.0, Sigma: 2}
	if got := a.StationaryStdDev(); got != 2 {
		t.Fatalf("unstable AR1 stddev fallback = %v, want sigma", got)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRenderECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, 5})
	out := Render(map[string]*ECDF{"a": e, "b": e}, 10, 4, 40)
	if out == "" {
		t.Fatal("empty render")
	}
	// Both legends must be present.
	if !containsAll(out, "[1] a", "[2] b") {
		t.Fatalf("render missing legend:\n%s", out)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !contains(s, sub) {
			return false
		}
	}
	return true
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestBootstrapLinRegCoversTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs := make([]float64, 60)
	ys := make([]float64, 60)
	for i := range xs {
		xs[i] = float64(i) * 40
		ys[i] = 0.08*xs[i] + 260 + rng.NormFloat64()*15
	}
	slope, intercept := BootstrapLinReg(xs, ys, 800, 0.95, rand.New(rand.NewSource(22)))
	if !(slope.Lo <= 0.08 && 0.08 <= slope.Hi) {
		t.Fatalf("slope CI [%.4f, %.4f] misses 0.08", slope.Lo, slope.Hi)
	}
	if !(intercept.Lo <= 260 && 260 <= intercept.Hi) {
		t.Fatalf("intercept CI [%.1f, %.1f] misses 260", intercept.Lo, intercept.Hi)
	}
	if slope.Width() <= 0 || intercept.Width() <= 0 {
		t.Fatal("degenerate CI width")
	}
	if slope.Level != 0.95 {
		t.Fatalf("level = %v", slope.Level)
	}
}

func TestBootstrapLinRegDegenerate(t *testing.T) {
	s, i := BootstrapLinReg(nil, nil, 100, 0.95, rand.New(rand.NewSource(1)))
	if s.Width() != 0 || i.Width() != 0 {
		t.Fatal("empty input produced nonzero CI")
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{2, 4, 7, 8, 10, 12}
	a1, b1 := BootstrapLinReg(xs, ys, 200, 0.95, rand.New(rand.NewSource(9)))
	a2, b2 := BootstrapLinReg(xs, ys, 200, 0.95, rand.New(rand.NewSource(9)))
	if a1 != a2 || b1 != b2 {
		t.Fatal("bootstrap nondeterministic for equal seeds")
	}
}

func TestPercentileCIClampsLevel(t *testing.T) {
	ci := percentileCI([]float64{1, 2, 3}, 2.0)
	if ci.Level != 0.95 {
		t.Fatalf("level = %v, want clamped 0.95", ci.Level)
	}
}

func TestScatterRendering(t *testing.T) {
	xs := []float64{0, 50, 100, 150, 200}
	ys := []float64{100, 80, 60, 30, 0}
	out := Scatter(xs, ys, 40, 8, "RTT (ms)", "Tdelta (ms)")
	if out == "" {
		t.Fatal("empty scatter")
	}
	for _, want := range []string{"RTT (ms)", "Tdelta (ms)", "·"} {
		if !contains(out, want) {
			t.Fatalf("scatter missing %q:\n%s", want, out)
		}
	}
	// Degenerate inputs must not panic.
	if got := Scatter(nil, nil, 40, 8, "x", "y"); !contains(got, "no data") {
		t.Fatalf("empty-data scatter = %q", got)
	}
	Scatter([]float64{5}, []float64{5}, 1, 1, "x", "y") // clamps dims
	// Density escalation: many points in one cell.
	same := Scatter([]float64{1, 1, 1, 1}, []float64{2, 2, 2, 2}, 12, 4, "x", "y")
	if !contains(same, "●") {
		t.Fatalf("dense cell not escalated:\n%s", same)
	}
}
