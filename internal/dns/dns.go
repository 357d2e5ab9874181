// Package dns models the DNS-based client→front-end mapping that both
// studied services rely on: the paper's "default server is whatever
// server IP address the DNS resolution returns to the client"
// (footnote 3). It provides:
//
//   - resolution policies: strict nearest-FE, and Akamai-style rotation
//     among the k nearest FEs (load spreading makes the "default" FE
//     vary between lookups);
//   - a client-side stub resolver with TTL caching, so repeated queries
//     within the TTL pay no resolution cost;
//   - a resolution-time model, enabling the reviewer-requested
//     comparison of DNS resolution time against the FE-BE fetch time.
//     (The paper excludes DNS time from its response-time measurements
//     — footnote 1 — because it is negligible; the comparison
//     quantifies that.)
package dns

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fesplit/internal/cdn"
	"fesplit/internal/frontend"
	"fesplit/internal/geo"
	"fesplit/internal/simnet"
	"fesplit/internal/stats"
)

// Policy selects how the authoritative side answers a lookup.
type Policy uint8

const (
	// PolicyNearest always returns the geographically nearest FE —
	// the idealized mapping the rest of the library defaults to.
	PolicyNearest Policy = iota
	// PolicyRotateK rotates among the K nearest FEs per lookup,
	// emulating CDN load spreading: clients near several FEs see
	// their "default server" change across resolutions.
	PolicyRotateK
)

// Config parameterizes a resolver.
type Config struct {
	Policy Policy
	// K is the rotation set size for PolicyRotateK (default 2).
	K int
	// TTL is the client-cache lifetime of an answer (default 60 s,
	// a typical CDN DNS TTL of the era).
	TTL time.Duration
	// BaseLookup is the resolution cost on a cache miss: the stub→
	// recursive→authoritative round trips (default 20 ms).
	BaseLookup time.Duration
	// Seed drives rotation.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 2
	}
	if c.TTL <= 0 {
		c.TTL = 60 * time.Second
	}
	if c.BaseLookup <= 0 {
		c.BaseLookup = 20 * time.Millisecond
	}
	return c
}

// Resolver maps clients to FE servers for one deployment.
type Resolver struct {
	dep *cdn.Deployment
	cfg Config
	rng *rand.Rand

	// ranked caches, per client point key, the deployment FEs sorted
	// by distance.
	ranked map[string][]*frontend.Server
	cache  map[simnet.HostID]cacheEntry

	lookups   int
	cacheHits int
}

type cacheEntry struct {
	fe      *frontend.Server
	expires time.Duration
}

// New builds a resolver over a deployment.
func New(dep *cdn.Deployment, cfg Config) *Resolver {
	cfg = cfg.withDefaults()
	return &Resolver{
		dep:    dep,
		cfg:    cfg,
		rng:    stats.NewRand(cfg.Seed),
		ranked: make(map[string][]*frontend.Server),
		cache:  make(map[simnet.HostID]cacheEntry),
	}
}

// Lookups returns the number of authoritative lookups performed
// (cache misses).
func (r *Resolver) Lookups() int { return r.lookups }

// CacheHits returns the number of lookups answered from the client
// cache.
func (r *Resolver) CacheHits() int { return r.cacheHits }

// rankFEs returns the deployment's FEs sorted by distance to p.
func (r *Resolver) rankFEs(p geo.Point) []*frontend.Server {
	key := p.String()
	if fes, ok := r.ranked[key]; ok {
		return fes
	}
	fes := make([]*frontend.Server, len(r.dep.FEs))
	copy(fes, r.dep.FEs)
	sort.Slice(fes, func(i, j int) bool {
		return geo.DistanceMiles(p, fes[i].Site().Point) <
			geo.DistanceMiles(p, fes[j].Site().Point)
	})
	r.ranked[key] = fes
	return fes
}

// Resolve answers a lookup for client at point p at virtual time now.
// It returns the FE to use and the resolution cost the client pays
// before it can open the TCP connection (zero on a cache hit).
func (r *Resolver) Resolve(now time.Duration, client simnet.HostID, p geo.Point) (*frontend.Server, time.Duration) {
	if e, ok := r.cache[client]; ok && now < e.expires {
		r.cacheHits++
		return e.fe, 0
	}
	r.lookups++
	fes := r.rankFEs(p)
	var fe *frontend.Server
	switch r.cfg.Policy {
	case PolicyRotateK:
		k := r.cfg.K
		if k > len(fes) {
			k = len(fes)
		}
		fe = fes[r.rng.Intn(k)]
	default:
		fe = fes[0]
	}
	r.cache[client] = cacheEntry{fe: fe, expires: now + r.cfg.TTL}
	return fe, r.cfg.BaseLookup
}

// Flush clears the client cache (for experiments that force fresh
// lookups).
func (r *Resolver) Flush() { r.cache = make(map[simnet.HostID]cacheEntry) }

// String describes the resolver configuration.
func (r *Resolver) String() string {
	p := "nearest"
	if r.cfg.Policy == PolicyRotateK {
		p = fmt.Sprintf("rotate-%d", r.cfg.K)
	}
	return fmt.Sprintf("dns(%s ttl=%v lookup=%v)", p, r.cfg.TTL, r.cfg.BaseLookup)
}
