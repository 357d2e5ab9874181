package stats

import (
	"fmt"
	"math"
)

// Sketch is a DDSketch-style streaming quantile sketch with a relative
// accuracy guarantee: Quantile(q) is within a factor (1 ± alpha) of the
// exact q-quantile of everything Added, using O(log(max/min)/alpha)
// space instead of storing samples. Values land in logarithmically
// spaced buckets (index = ceil(log_gamma(x)) with gamma =
// (1+alpha)/(1-alpha)); each bucket's representative value is its
// log-space midpoint.
//
// Sketches over the same alpha merge losslessly, and because bucket
// counts are integers the merged quantiles are independent of merge
// order — the fleet-wide percentile of per-node sketches is exact with
// respect to the same guarantee. (Sum is a float accumulation and is
// only order-independent up to rounding.)
//
// The zero value is not usable; create sketches with NewSketch. All
// inputs below minIndexable (1 ns when values are seconds) fold into a
// dedicated zero bucket; negative inputs are treated as zero, which
// suits the non-negative durations and sizes this repository measures.
// Buckets live in a dense store (DDSketch's layout), one count per
// index from the lowest bucket seen to the highest: its memory follows
// the span of indices, not the number of buckets.
type Sketch struct {
	alpha   float64
	gamma   float64
	lnGamma float64

	counts []uint64 // counts[k] is bucket offset+k
	offset int
	zero   uint64 // values in [0, minIndexable)
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// minIndexable is the smallest value assigned a logarithmic bucket;
// anything smaller (sub-nanosecond, for second-denominated durations)
// counts as zero. It bounds the bucket-index range.
const minIndexable = 1e-9

// DefaultSketchAlpha is the relative accuracy used by the observability
// layer's sketches: quantiles within ±1%.
const DefaultSketchAlpha = 0.01

// NewSketch returns an empty sketch with the given relative accuracy
// (0 < alpha < 1). Out-of-range alphas fall back to
// DefaultSketchAlpha.
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 || alpha >= 1 {
		alpha = DefaultSketchAlpha
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:   alpha,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Alpha returns the sketch's configured relative accuracy.
func (s *Sketch) Alpha() float64 { return s.alpha }

// index maps a value > minIndexable to its bucket index.
func (s *Sketch) index(v float64) int {
	return int(math.Ceil(math.Log(v) / s.lnGamma))
}

// bucketValue is the representative value of bucket i: the log-space
// midpoint 2·gamma^i/(gamma+1), within alpha of every value the bucket
// covers.
func (s *Sketch) bucketValue(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// slot returns the count cell of bucket i, widening the store to reach
// it.
func (s *Sketch) slot(i int) *uint64 {
	k := i - s.offset
	switch {
	case len(s.counts) == 0:
		s.counts, s.offset, k = append(s.counts, 0), i, 0
	case k < 0:
		// Grow downward by at least the store's length, as append grows upward.
		n := max(len(s.counts)-k, 2*len(s.counts))
		grown := make([]uint64, n)
		copy(grown[n-len(s.counts):], s.counts)
		s.offset -= n - len(s.counts)
		s.counts, k = grown, i-s.offset
	case k >= len(s.counts):
		s.counts = append(s.counts, make([]uint64, k+1-len(s.counts))...)
	}
	return &s.counts[k]
}

// Add folds one value into the sketch.
func (s *Sketch) Add(v float64) { s.AddN(v, 1) }

// AddN folds n occurrences of v into the sketch. +Inf lands in the top
// bucket the sketch can index, that of math.MaxFloat64; Sum and Max
// still read +Inf.
func (s *Sketch) AddN(v float64, n uint64) {
	if n == 0 || math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	s.count += n
	s.sum += v * float64(n)
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if v < minIndexable {
		s.zero += n
		return
	}
	*s.slot(s.index(min(v, math.MaxFloat64))) += n
}

// Count returns the number of values added.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the sum of all values added.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean of all values added (0 when
// empty). Exact, not a bucket estimate: the sketch tracks the true
// running sum alongside the geometric bucket counts.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest value added (0 when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest value added (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Quantile returns an estimate of the q-quantile (q clamped to [0, 1])
// with relative error at most alpha; exact Min/Max anchor the ends. It
// returns 0 for an empty sketch.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := q * float64(s.count-1)
	if rank < float64(s.zero) {
		return 0
	}
	// Stop at the bucket holding the rank, or at the top one.
	cum := float64(s.zero)
	at := -1
	for k, c := range s.counts {
		if c == 0 {
			continue
		}
		at = k
		if cum += float64(c); rank < cum {
			break
		}
	}
	return s.clampToRange(s.bucketValue(s.offset + at))
}

// clampToRange keeps bucket midpoints inside the observed [min, max],
// so extreme quantiles never exceed actually seen values.
func (s *Sketch) clampToRange(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// Merge folds other into s. Both sketches must share the same alpha;
// mismatched accuracies panic, since silently re-bucketing would void
// the error guarantee. A nil or empty other is a no-op.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil || other.count == 0 {
		return
	}
	if other.alpha != s.alpha {
		panic(fmt.Sprintf("stats: merging sketches with different accuracies (%v vs %v)",
			s.alpha, other.alpha))
	}
	for k, c := range other.counts {
		if c != 0 {
			*s.slot(other.offset + k) += c
		}
	}
	s.zero += other.zero
	s.count += other.count
	s.sum += other.sum
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// Bucket is one exported (index, count) pair of a sketch.
type Bucket struct {
	Index int
	Count uint64
}

// Buckets returns the non-empty logarithmic buckets sorted by index —
// the deterministic export form used by the JSONL metrics dump. The
// zero bucket is reported separately via ZeroCount.
func (s *Sketch) Buckets() []Bucket {
	n := 0
	for _, c := range s.counts {
		if c != 0 {
			n++
		}
	}
	out := make([]Bucket, 0, n)
	for k, c := range s.counts {
		if c != 0 {
			out = append(out, Bucket{Index: s.offset + k, Count: c})
		}
	}
	return out
}

// ZeroCount returns the number of values that fell into the zero
// bucket.
func (s *Sketch) ZeroCount() uint64 { return s.zero }

// MaxRestoreSpan caps the span of bucket indices RestoreSketch accepts:
// the dense store costs 8 B per index of the span, however few buckets
// are filled. It covers the whole indexable range for alpha ≥ 0.0056 —
// about 36 500 indices at DefaultSketchAlpha — in at most 512 KiB.
const MaxRestoreSpan = 1 << 16

// RestoreSketch rebuilds a sketch from its exported state (the inverse
// of Buckets/ZeroCount/Sum/Min/Max) so serialized sketches round-trip.
// It returns an error, before allocating the store, for bucket indices
// that do not ascend, lie outside the range the alpha can index
// (index(minIndexable) … index(math.MaxFloat64)) or span more than
// MaxRestoreSpan.
func RestoreSketch(alpha float64, zero uint64, sum, min, max float64, buckets []Bucket) (*Sketch, error) {
	s := NewSketch(alpha)
	if n := len(buckets); n > 0 {
		lo := math.Ceil(math.Log(minIndexable) / s.lnGamma)
		hi := math.Ceil(math.Log(math.MaxFloat64) / s.lnGamma)
		for i, b := range buckets {
			if i > 0 && b.Index <= buckets[i-1].Index {
				return nil, fmt.Errorf("stats: sketch bucket indices not ascending")
			}
			if x := float64(b.Index); x < lo || x > hi {
				return nil, fmt.Errorf("stats: sketch bucket index %d outside [%v, %v] at alpha %v", b.Index, lo, hi, s.alpha)
			}
		}
		d := buckets[n-1].Index - buckets[0].Index // < 0: the ascending indices overflowed
		if d < 0 || d >= MaxRestoreSpan {
			return nil, fmt.Errorf("stats: sketch bucket indices %d … %d span more than %d",
				buckets[0].Index, buckets[n-1].Index, MaxRestoreSpan)
		}
		s.counts, s.offset = make([]uint64, d+1), buckets[0].Index
	}
	s.zero, s.count, s.sum = zero, zero, sum
	for _, b := range buckets {
		*s.slot(b.Index) = b.Count
		s.count += b.Count
	}
	if s.count > 0 {
		s.min, s.max = min, max
	}
	return s, nil
}
