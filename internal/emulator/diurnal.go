package emulator

import (
	"fmt"
	"math"
	"time"
)

// RatePoint anchors a piecewise-linear arrival-rate curve: the
// fleet-wide rate (arrivals per second) at virtual time At.
type RatePoint struct {
	At   time.Duration
	Rate float64
}

// DiurnalCurve is a piecewise-linear arrival-rate curve over virtual
// time — the open-loop campaign's diurnal load shape. Points must be
// sorted by At with non-negative rates; the curve is flat before the
// first point and the campaign's arrival horizon is the last point.
// RunFleet inverts its cumulative integral into the exact global
// arrival sequence (arrivals), so the k-th ephemeral client's arrival
// time is a pure function of the curve — independent of batching,
// workers, or pool state.
type DiurnalCurve struct {
	Points []RatePoint
}

// DefaultDiurnalCurve is a one-"day" sinusoid-ish shape compressed into
// the given horizon: trough at the start and end, peak mid-day at
// peak arrivals/sec, shoulders at half peak. Total arrivals ≈
// peak/2 × horizon.
func DefaultDiurnalCurve(horizon time.Duration, peak float64) DiurnalCurve {
	at := func(f float64) time.Duration { return time.Duration(f * float64(horizon)) }
	return DiurnalCurve{Points: []RatePoint{
		{At: 0, Rate: peak * 0.15},
		{At: at(0.25), Rate: peak * 0.5},
		{At: at(0.5), Rate: peak},
		{At: at(0.75), Rate: peak * 0.5},
		{At: horizon, Rate: peak * 0.15},
	}}
}

// Validate checks the curve's invariants.
func (c DiurnalCurve) Validate() error {
	if len(c.Points) < 2 {
		return fmt.Errorf("emulator: diurnal curve needs >= 2 points, have %d", len(c.Points))
	}
	for i, p := range c.Points {
		if p.Rate < 0 {
			return fmt.Errorf("emulator: diurnal curve point %d has negative rate %g", i, p.Rate)
		}
		if i > 0 && p.At <= c.Points[i-1].At {
			return fmt.Errorf("emulator: diurnal curve points not strictly increasing at %d", i)
		}
	}
	return nil
}

// arrivals walks the curve's global arrival sequence: each next call
// returns the virtual time at which the cumulative integral of the
// rate crosses the next whole arrival. The walk is incremental and
// exact per segment (the integral of a linear rate is quadratic, so
// each crossing is a closed-form root), making the sequence a
// deterministic function of the curve alone — every batch of a sharded
// campaign reproduces the identical sequence.
type arrivals struct {
	curve DiurnalCurve
	seg   int     // segment being integrated: points[seg] → points[seg+1]
	t     float64 // current position, seconds
	rem   float64 // arrival mass still needed before the next emission
}

func newArrivals(c DiurnalCurve) *arrivals {
	a := &arrivals{curve: c, rem: 1}
	if len(c.Points) > 0 {
		a.t = c.Points[0].At.Seconds()
	}
	return a
}

// next returns the next arrival time, or false once the curve's
// horizon is exhausted.
func (a *arrivals) next() (time.Duration, bool) {
	pts := a.curve.Points
	for a.seg < len(pts)-1 {
		p0, p1 := pts[a.seg], pts[a.seg+1]
		t0, t1 := p0.At.Seconds(), p1.At.Seconds()
		r0 := p0.Rate
		slope := (p1.Rate - p0.Rate) / (t1 - t0)
		// Rate at the current position and integral left in the segment.
		r := r0 + slope*(a.t-t0)
		segRem := (r + p1.Rate) / 2 * (t1 - a.t)
		if segRem < a.rem {
			// Not enough mass here: consume it and move to the next
			// segment.
			a.rem -= segRem
			a.seg++
			a.t = t1
			continue
		}
		// The crossing lies in this segment: solve
		// r·dt + slope·dt²/2 = rem for dt ≥ 0.
		var dt float64
		if slope == 0 {
			dt = a.rem / r
		} else {
			disc := r*r + 2*slope*a.rem
			if disc < 0 {
				disc = 0
			}
			dt = (math.Sqrt(disc) - r) / slope
		}
		a.t += dt
		a.rem = 1
		return time.Duration(a.t * float64(time.Second)), true
	}
	return 0, false
}
