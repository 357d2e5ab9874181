// Package geo models the geographic substrate of the measurement study:
// coordinates of vantage points, front-end (FE) servers and back-end (BE)
// data centers, great-circle distances between them, and the mapping from
// distance to network propagation delay.
//
// The paper correlates Tdynamic with the geographic distance between FE
// servers and BE data centers (Figure 9), using published locations of the
// Bing data center in Virginia and the Google data center in Lenoir, North
// Carolina. This package carries equivalent curated location tables.
package geo

import (
	"fmt"
	"math"
	"time"
)

// EarthRadiusMiles is the mean Earth radius in statute miles. The paper
// reports distances in miles, so miles are the canonical unit here.
const EarthRadiusMiles = 3958.8

// Point is a geographic coordinate in decimal degrees.
type Point struct {
	Lat float64 // latitude, -90..90
	Lon float64 // longitude, -180..180
}

// String renders the point as "lat,lon" with 4 decimal places.
func (p Point) String() string { return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Lon) }

// DistanceMiles returns the great-circle (haversine) distance between two
// points in statute miles.
func DistanceMiles(a, b Point) float64 {
	const degToRad = math.Pi / 180
	la1, lo1 := a.Lat*degToRad, a.Lon*degToRad
	la2, lo2 := b.Lat*degToRad, b.Lon*degToRad
	dla := la2 - la1
	dlo := lo2 - lo1
	h := sq(math.Sin(dla/2)) + math.Cos(la1)*math.Cos(la2)*sq(math.Sin(dlo/2))
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMiles * math.Asin(math.Sqrt(h))
}

func sq(x float64) float64 { return x * x }

// DelayModel converts great-circle distance into one-way network
// propagation delay. Signal speed in fiber is roughly 2/3 c, and real
// routes detour, so the effective per-mile delay is tunable; Inflation
// captures route stretch (typically 1.2–2.0 on the public Internet,
// closer to 1 on private backbones).
type DelayModel struct {
	// PerMile is the idealized straight-line one-way delay per statute
	// mile. Light in fiber covers ~124 miles/ms, i.e. ~8.05 µs/mile.
	PerMile time.Duration
	// Inflation multiplies the straight-line delay to account for
	// non-great-circle routing and switching overheads.
	Inflation float64
	// Floor is a minimum one-way delay (last-mile, serialization).
	Floor time.Duration
}

// DefaultDelayModel is calibrated for public-Internet paths:
// ~8 µs/mile with 1.6× route inflation and a 0.25 ms floor. A 1000-mile
// path yields ~13 ms one-way (~26 ms RTT), consistent with measured
// US-continental RTTs.
func DefaultDelayModel() DelayModel {
	return DelayModel{PerMile: 8050 * time.Nanosecond, Inflation: 1.6, Floor: 250 * time.Microsecond}
}

// WideAreaFEBEDelayModel is calibrated for the FE↔BE legs of both
// studied services: long-haul routes with multi-AS detours and
// switching overheads. Its inflation gives 0.0483 ms of RTT per mile,
// and the Figure-9 regression slope lands there (0.048–0.050 ms/mile)
// — about half the paper's slopes (the Fig 9 rows of the root
// scorecard; ROADMAP item 16).
func WideAreaFEBEDelayModel() DelayModel {
	return DelayModel{PerMile: 8050 * time.Nanosecond, Inflation: 3.0, Floor: 300 * time.Microsecond}
}

// OneWay returns the one-way propagation delay for a path of the given
// great-circle mileage.
func (m DelayModel) OneWay(miles float64) time.Duration {
	if miles < 0 {
		miles = 0
	}
	d := time.Duration(float64(m.PerMile) * miles * m.Inflation)
	if d < m.Floor {
		d = m.Floor
	}
	return d
}

// OneWayBetween is shorthand for OneWay(DistanceMiles(a, b)).
func (m DelayModel) OneWayBetween(a, b Point) time.Duration {
	return m.OneWay(DistanceMiles(a, b))
}

// Site is a named geographic location hosting infrastructure.
type Site struct {
	Name  string
	Point Point
}
