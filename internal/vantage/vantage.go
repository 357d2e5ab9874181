// Package vantage synthesizes the measurement fleet — the stand-in for
// the paper's 200–250 PlanetLab nodes. Nodes are placed in (or near)
// metro areas, biased toward the university-campus networks where most
// PlanetLab hosts actually live, with campus-grade access links. An
// alternative wireless profile supports the Discussion-section lossy
// last-hop scenario.
package vantage

import (
	"fmt"
	"time"

	"fesplit/internal/cdn"
	"fesplit/internal/geo"
	"fesplit/internal/shard"
	"fesplit/internal/simnet"
	"fesplit/internal/stats"
)

// AccessProfile characterizes a node's last-mile link.
type AccessProfile struct {
	// OneWayMin/OneWayMax bound the node's one-way access latency,
	// drawn uniformly.
	OneWayMin, OneWayMax time.Duration
	// Jitter is per-packet jitter on the access link.
	Jitter time.Duration
	// Loss is the access-link loss rate.
	Loss float64
}

// CampusProfile is a wired university network: sub-millisecond to
// low-millisecond latency, negligible jitter and loss. The paper notes
// its PlanetLab vantage points see "no significant packet losses".
func CampusProfile() AccessProfile {
	return AccessProfile{
		OneWayMin: 300 * time.Microsecond,
		OneWayMax: 2 * time.Millisecond,
		Jitter:    200 * time.Microsecond,
	}
}

// WirelessProfile is the lossy, higher-latency last hop of the
// Discussion section's WiFi what-if.
func WirelessProfile() AccessProfile {
	return AccessProfile{
		OneWayMin: 2 * time.Millisecond,
		OneWayMax: 15 * time.Millisecond,
		Jitter:    4 * time.Millisecond,
		Loss:      0.01,
	}
}

// Node is one measurement vantage point.
type Node struct {
	Host   simnet.HostID
	Point  geo.Point
	Access AccessProfile
	// OneWay is the node's drawn access latency (within the profile
	// bounds).
	OneWay time.Duration
	// Metro is the metro site the node was placed near.
	Metro string
}

// Fleet is a set of vantage points.
type Fleet struct {
	Nodes []Node
}

// NewFleet places n nodes near the given metro pool with the access
// profile, deterministically from seed. Placement scatters each node up
// to ~20 miles from its metro centroid.
func NewFleet(n int, metros []geo.Site, profile AccessProfile, seed int64) *Fleet {
	rng := stats.NewRand(seed)
	f := &Fleet{Nodes: make([]Node, n)}
	for i := range f.Nodes {
		m := metros[rng.Intn(len(metros))]
		pt := geo.Point{
			Lat: m.Point.Lat + (rng.Float64()-0.5)*0.5,
			Lon: m.Point.Lon + (rng.Float64()-0.5)*0.5,
		}
		span := profile.OneWayMax - profile.OneWayMin
		oneWay := profile.OneWayMin
		if span > 0 {
			oneWay += time.Duration(rng.Int63n(int64(span)))
		}
		f.Nodes[i] = Node{
			Host:   simnet.HostID(fmt.Sprintf("node-%03d", i)),
			Point:  pt,
			Access: profile,
			OneWay: oneWay,
			Metro:  m.Name,
		}
	}
	return f
}

// SynthNode synthesizes node idx of a virtual fleet in O(1), without
// materializing any other node: the per-node RNG is seeded by a
// SplitMix64 mix of (seed, idx), so any slot of a million-client fleet
// can be produced — and byte-identically re-produced — independently of
// order, subset, or shard layout. The draw structure mirrors NewFleet's
// (metro pick, centroid scatter, access-latency draw) but the random
// streams differ: SynthNode defines its own fleet, not a random-access
// view of NewFleet's sequential one. Host IDs use a distinct
// "client-%07d" namespace so synthetic clients can coexist with a
// materialized fleet on one network.
func SynthNode(seed int64, idx int, metros []geo.Site, profile AccessProfile) Node {
	rng := stats.NewRand(shard.Mix(seed, uint64(idx)))
	m := metros[rng.Intn(len(metros))]
	pt := geo.Point{
		Lat: m.Point.Lat + (rng.Float64()-0.5)*0.5,
		Lon: m.Point.Lon + (rng.Float64()-0.5)*0.5,
	}
	span := profile.OneWayMax - profile.OneWayMin
	oneWay := profile.OneWayMin
	if span > 0 {
		oneWay += time.Duration(rng.Int63n(int64(span)))
	}
	return Node{
		Host:   simnet.HostID(fmt.Sprintf("client-%07d", idx)),
		Point:  pt,
		Access: profile,
		OneWay: oneWay,
		Metro:  m.Name,
	}
}

// DefaultFleet builds the standard 250-node campus fleet over the world
// metro pool, mirroring the paper's PlanetLab coverage.
func DefaultFleet(seed int64) *Fleet {
	return NewFleet(250, geo.WorldMetros(), CampusProfile(), seed)
}

// Wire connects every node to every FE of the deployment.
func (f *Fleet) Wire(d *cdn.Deployment) {
	for _, n := range f.Nodes {
		d.WireClient(n.Host, n.Point, n.OneWay, n.Access.Jitter, n.Access.Loss)
	}
}

// WireToBEs additionally connects every node straight to the BEs (for
// the no-FE baseline).
func (f *Fleet) WireToBEs(d *cdn.Deployment) {
	for _, n := range f.Nodes {
		d.WireClientToBEs(n.Host, n.Point, n.OneWay, n.Access.Jitter, n.Access.Loss)
	}
}
