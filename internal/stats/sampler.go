package stats

import (
	"math"
	"math/rand"
)

// Rand is the subset of *rand.Rand the samplers need; accepting an
// interface keeps the samplers testable with recorded streams.
type Rand interface {
	Float64() float64
	NormFloat64() float64
}

// NewRand returns a deterministic PRNG for the given seed. Every
// experiment in fesplit derives its randomness from seeds so runs
// reproduce exactly.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^s, modelling keyword
// popularity: rank 0 is the most popular query. A Zipf is read-only
// once built, so concurrent Draws with separate Rands are safe.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 0.
// n < 1 is treated as 1.
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		n = 1
	}
	cdf := make([]float64, n)
	var total float64
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &Zipf{cdf: cdf}
}

// Draw samples a rank using rng.
func (z *Zipf) Draw(rng Rand) int {
	u := rng.Float64()
	// Binary search for the first rank whose CDF covers u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Prob returns the probability mass of rank k.
func (z *Zipf) Prob(k int) float64 {
	if k < 0 || k >= len(z.cdf) {
		return 0
	}
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

// LogNormal draws positive values whose logarithm is Normal(mu, sigma).
// Service processing times are modelled log-normally: mostly tight with a
// heavy right tail, matching the variable BE fetch times the paper
// observes for Bing.
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// Draw samples one value.
func (l LogNormal) Draw(rng Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// LogNormalFromMeanCV builds a LogNormal with the given mean and
// coefficient of variation (stddev/mean). mean must be > 0; cv < 0 is
// treated as 0.
func LogNormalFromMeanCV(mean, cv float64) LogNormal {
	if cv < 0 {
		cv = 0
	}
	s2 := math.Log(1 + cv*cv)
	return LogNormal{
		Mu:    math.Log(mean) - s2/2,
		Sigma: math.Sqrt(s2),
	}
}

// AR1 is a first-order autoregressive process
// x[t+1] = phi·x[t] + noise, noise ~ Normal(0, sigma). It models slowly
// varying server load: successive queries to a loaded FE/BE see
// correlated delays.
type AR1 struct {
	Phi   float64 // correlation, |Phi| < 1 for stationarity
	Sigma float64 // innovation stddev
	x     float64
}

// Next advances the process one step and returns the new value.
func (a *AR1) Next(rng Rand) float64 {
	a.x = a.Phi*a.x + a.Sigma*rng.NormFloat64()
	return a.x
}

// Value returns the current state without advancing.
func (a *AR1) Value() float64 { return a.x }

// StationaryStdDev returns the long-run standard deviation
// sigma/sqrt(1-phi²), or sigma when |phi| ≥ 1.
func (a *AR1) StationaryStdDev() float64 {
	if a.Phi*a.Phi >= 1 {
		return a.Sigma
	}
	return a.Sigma / math.Sqrt(1-a.Phi*a.Phi)
}
