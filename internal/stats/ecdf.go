package stats

import (
	"fmt"
	"sort"
	"strings"
)

// ECDF is an empirical cumulative distribution function built from a
// sample. It backs the RTT-distribution comparison of paper Figure 6.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns F(x) = P[X ≤ x], the fraction of samples ≤ x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// sort.SearchFloat64s returns the first index with sorted[i] >= x;
	// advance past equal elements so the CDF is right-continuous.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the smallest sample value v with F(v) ≥ q.
// q is clamped to [0, 1].
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	i := int(q * float64(len(e.sorted)))
	if i >= len(e.sorted) {
		i = len(e.sorted) - 1
	}
	return e.sorted[i]
}

// KS returns the two-sample Kolmogorov–Smirnov statistic
// sup_x |F1(x) − F2(x)|. It is used by the caching-detection experiment
// to decide whether two Tdynamic distributions are indistinguishable.
func KS(a, b *ECDF) float64 {
	var d float64
	for _, x := range a.sorted {
		if v := abs(a.At(x) - b.At(x)); v > d {
			d = v
		}
	}
	for _, x := range b.sorted {
		if v := abs(a.At(x) - b.At(x)); v > d {
			d = v
		}
	}
	return d
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Render draws a crude fixed-width ASCII CDF for terminal reports:
// `rows` lines from F=1/rows..1, marking each series' quantile position
// on a shared x axis from 0 to xmax.
func Render(series map[string]*ECDF, xmax float64, rows, cols int) string {
	if rows < 2 {
		rows = 2
	}
	if cols < 10 {
		cols = 10
	}
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for r := rows; r >= 1; r-- {
		q := float64(r) / float64(rows)
		line := []byte(strings.Repeat(" ", cols))
		for i, n := range names {
			v := series[n].Quantile(q)
			pos := int(v / xmax * float64(cols-1))
			if pos < 0 {
				pos = 0
			}
			if pos >= cols {
				pos = cols - 1
			}
			line[pos] = byte('1' + i)
		}
		fmt.Fprintf(&b, "%4.2f |%s|\n", q, string(line))
	}
	fmt.Fprintf(&b, "      0%s%.0f\n", strings.Repeat(" ", cols-6), xmax)
	for i, n := range names {
		fmt.Fprintf(&b, "      [%d] %s\n", i+1, n)
	}
	return b.String()
}
