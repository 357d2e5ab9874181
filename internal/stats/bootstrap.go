package stats

import (
	"math/rand"
	"sort"
)

// BootstrapCI is a percentile bootstrap confidence interval.
type BootstrapCI struct {
	Lo, Hi float64
	// Level is the nominal coverage, e.g. 0.95.
	Level float64
}

// Contains reports whether v lies inside the interval.
func (ci BootstrapCI) Contains(v float64) bool { return v >= ci.Lo && v <= ci.Hi }

// Width returns Hi − Lo.
func (ci BootstrapCI) Width() float64 { return ci.Hi - ci.Lo }

// BootstrapLinReg resamples (x, y) pairs with replacement and returns
// percentile confidence intervals for the OLS slope and intercept —
// uncertainty bands for the Figure-9 fetch-time factoring. resamples
// ~1000 and level 0.95 are typical; rng makes the procedure
// deterministic.
func BootstrapLinReg(xs, ys []float64, resamples int, level float64, rng *rand.Rand) (slope, intercept BootstrapCI) {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 || resamples < 1 {
		return BootstrapCI{Level: level}, BootstrapCI{Level: level}
	}
	// One backing array for the two resample scratches and one for the
	// two statistic streams; the resample loop itself allocates nothing.
	scratch := make([]float64, 2*n)
	rx, ry := scratch[:n:n], scratch[n:]
	acc := make([]float64, 2*resamples)
	slopes := acc[:0:resamples]
	intercepts := acc[resamples : resamples : 2*resamples]
	for b := 0; b < resamples; b++ {
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			rx[i], ry[i] = xs[j], ys[j]
		}
		fit := LinReg(rx, ry)
		slopes = append(slopes, fit.Slope)
		intercepts = append(intercepts, fit.Intercept)
	}
	return percentileCI(slopes, level), percentileCI(intercepts, level)
}

// BootstrapMedian returns a percentile bootstrap CI for the median.
func BootstrapMedian(xs []float64, resamples int, level float64, rng *rand.Rand) BootstrapCI {
	n := len(xs)
	if n == 0 || resamples < 1 {
		return BootstrapCI{Level: level}
	}
	meds := make([]float64, 0, resamples)
	sample := make([]float64, n)
	for b := 0; b < resamples; b++ {
		for i := 0; i < n; i++ {
			sample[i] = xs[rng.Intn(n)]
		}
		// Median would sort a fresh copy per resample; sorting the
		// scratch in place is free — every slot is overwritten on the
		// next round — and yields the same value.
		sort.Float64s(sample)
		meds = append(meds, quantileSorted(sample, 0.5))
	}
	return percentileCI(meds, level)
}

func percentileCI(vals []float64, level float64) BootstrapCI {
	if level <= 0 || level >= 1 {
		level = 0.95
	}
	sort.Float64s(vals)
	alpha := (1 - level) / 2
	return BootstrapCI{
		Lo:    quantileSorted(vals, alpha),
		Hi:    quantileSorted(vals, 1-alpha),
		Level: level,
	}
}
