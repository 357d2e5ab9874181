// Package stats provides the small statistical toolkit used throughout
// fesplit: order statistics, moments, moving medians, empirical
// CDFs, box-plot summaries, least-squares regression and the seeded random
// samplers that drive workload and load-fluctuation models.
//
// All functions are deterministic given their inputs; samplers take an
// explicit *rand.Rand so experiments reproduce bit-identically.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns 0 for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs without modifying it.
// It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// The input is not modified. It returns 0 for an empty slice; q is
// clamped to [0, 1].
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return xs[0]
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted computes the type-7 quantile assuming xs is sorted.
func quantileSorted(xs []float64, q float64) float64 {
	n := len(xs)
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return xs[n-1]
	}
	frac := h - float64(lo)
	// The weighted form avoids overflow when xs[hi]-xs[lo] exceeds the
	// float64 range (e.g. interpolating between ±1e308).
	return (1-frac)*xs[lo] + frac*xs[hi]
}

// Summary holds one-pass descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// Summarize computes a Summary of xs. A zero Summary is returned for an
// empty input.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		N:      n,
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[n-1],
	}
}

// IQR returns the inter-quartile range of the summary.
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }

// BoxPlot is the five-number summary with Tukey whiskers used for the
// per-node overall-delay plots (paper Figure 8).
type BoxPlot struct {
	Min, Q1, Median, Q3, Max float64
	WhiskerLow, WhiskerHigh  float64
	Outliers                 []float64
}

// BoxPlotOf computes a Tukey box plot of xs: whiskers extend to the most
// extreme data points within 1.5×IQR of the quartiles; everything beyond
// is an outlier.
func BoxPlotOf(xs []float64) BoxPlot {
	if len(xs) == 0 {
		return BoxPlot{}
	}
	s := Summarize(xs)
	iqr := s.IQR()
	loFence := s.Q1 - 1.5*iqr
	hiFence := s.Q3 + 1.5*iqr
	bp := BoxPlot{Min: s.Min, Q1: s.Q1, Median: s.Median, Q3: s.Q3, Max: s.Max}
	bp.WhiskerLow = math.Inf(1)
	bp.WhiskerHigh = math.Inf(-1)
	for _, x := range xs {
		if x < loFence || x > hiFence {
			bp.Outliers = append(bp.Outliers, x)
			continue
		}
		if x < bp.WhiskerLow {
			bp.WhiskerLow = x
		}
		if x > bp.WhiskerHigh {
			bp.WhiskerHigh = x
		}
	}
	if math.IsInf(bp.WhiskerLow, 1) { // everything was an outlier
		bp.WhiskerLow, bp.WhiskerHigh = s.Median, s.Median
	}
	sort.Float64s(bp.Outliers)
	return bp
}

// MovingMedian returns the moving median of xs with the given window size,
// matching the paper's Figure 3 smoothing ("moving median with the sample
// window size being 10"). Output element i is the median of
// xs[max(0,i-window+1) .. i], so the output has the same length as the
// input and early elements use a shorter window. window < 1 is treated
// as 1.
func MovingMedian(xs []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := make([]float64, len(xs))
	buf := make([]float64, 0, window)
	for i := range xs {
		lo := i - window + 1
		if lo < 0 {
			lo = 0
		}
		buf = append(buf[:0], xs[lo:i+1]...)
		sort.Float64s(buf)
		out[i] = quantileSorted(buf, 0.5)
	}
	return out
}
