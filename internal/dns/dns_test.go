package dns_test

import (
	"testing"
	"time"

	"fesplit/internal/cdn"
	"fesplit/internal/dns"
	"fesplit/internal/emulator"
	"fesplit/internal/geo"
	"fesplit/internal/simnet"
	"fesplit/internal/stats"
)

func buildDep(t *testing.T) *cdn.Deployment {
	t.Helper()
	sim := simnet.New(1)
	n := simnet.NewNetwork(sim)
	dep, err := cdn.Build(n, cdn.BingLike(1))
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestNearestPolicyMatchesDefaultFE(t *testing.T) {
	dep := buildDep(t)
	r := dns.New(dep, dns.Config{Policy: dns.PolicyNearest, Seed: 2})
	msp := geo.Point{Lat: 44.9778, Lon: -93.2650}
	fe, cost := r.Resolve(0, "client-a", msp)
	if fe != dep.DefaultFE(msp) {
		t.Fatalf("nearest policy returned %s, want default FE %s",
			fe.Host(), dep.DefaultFE(msp).Host())
	}
	if cost <= 0 {
		t.Fatalf("first lookup cost = %v, want positive", cost)
	}
}

func TestTTLCaching(t *testing.T) {
	dep := buildDep(t)
	r := dns.New(dep, dns.Config{TTL: 10 * time.Second, BaseLookup: 25 * time.Millisecond, Seed: 3})
	p := geo.Point{Lat: 40.7, Lon: -74.0}
	fe1, cost1 := r.Resolve(0, "c", p)
	if cost1 != 25*time.Millisecond {
		t.Fatalf("first lookup cost = %v", cost1)
	}
	fe2, cost2 := r.Resolve(5*time.Second, "c", p) // within TTL
	if cost2 != 0 || fe2 != fe1 {
		t.Fatalf("cache hit: cost=%v fe-same=%v", cost2, fe1 == fe2)
	}
	_, cost3 := r.Resolve(11*time.Second, "c", p) // expired
	if cost3 != 25*time.Millisecond {
		t.Fatalf("expired lookup cost = %v", cost3)
	}
	if r.Lookups() != 2 || r.CacheHits() != 1 {
		t.Fatalf("lookups=%d hits=%d", r.Lookups(), r.CacheHits())
	}
	r.Flush()
	if _, cost := r.Resolve(12*time.Second, "c", p); cost == 0 {
		t.Fatal("flush did not clear the cache")
	}
}

func TestRotatePolicyVariesFE(t *testing.T) {
	dep := buildDep(t)
	r := dns.New(dep, dns.Config{Policy: dns.PolicyRotateK, K: 3, TTL: time.Millisecond, Seed: 4})
	p := geo.Point{Lat: 40.7, Lon: -74.0}
	seen := map[simnet.HostID]bool{}
	for i := 0; i < 60; i++ {
		fe, _ := r.Resolve(time.Duration(i)*time.Second, "c", p)
		seen[fe.Host()] = true
	}
	if len(seen) < 2 {
		t.Fatalf("rotation returned %d distinct FEs, want ≥2", len(seen))
	}
	if len(seen) > 3 {
		t.Fatalf("rotation exceeded K=3: %d FEs", len(seen))
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRotationStaysNearby(t *testing.T) {
	// Every rotated answer must be among the 3 nearest FEs.
	dep := buildDep(t)
	r := dns.New(dep, dns.Config{Policy: dns.PolicyRotateK, K: 3, TTL: time.Nanosecond, Seed: 5})
	p := geo.Point{Lat: 41.8781, Lon: -87.6298} // Chicago
	nearest := dep.DefaultFE(p)
	maxOK := 3 * geo.DistanceMiles(p, nearest.Site().Point)
	if maxOK < 300 {
		maxOK = 300
	}
	for i := 0; i < 40; i++ {
		fe, _ := r.Resolve(time.Duration(i)*time.Second, "c", p)
		if d := geo.DistanceMiles(p, fe.Site().Point); d > maxOK {
			t.Fatalf("rotated FE %s is %.0f miles away", fe.Host(), d)
		}
	}
}

// TestDNSTimeVsFetchTime is the reviewer-requested comparison: DNS
// resolution time is a small fraction of the FE-BE fetch time, which
// justifies the paper's exclusion of DNS from its measurements.
func TestDNSTimeVsFetchTime(t *testing.T) {
	runner, err := emulator.New(61, cdn.GoogleLike(1),
		emulator.Options{Nodes: 15, FleetSeed: 62})
	if err != nil {
		t.Fatal(err)
	}
	resolver := dns.New(runner.Dep, dns.Config{
		TTL: 45 * time.Second, BaseLookup: 20 * time.Millisecond, Seed: 63,
	})
	ds := runner.RunExperimentA(emulator.AOptions{
		QueriesPerNode: 6, Interval: 20 * time.Second, // > TTL: periodic re-lookups
		QuerySeed: 64, Resolver: resolver,
	})
	if len(ds.Records) != 90 {
		t.Fatalf("records = %d", len(ds.Records))
	}
	var withDNS, without int
	var dnsMS []float64
	for _, rec := range ds.Records {
		if rec.Failed {
			t.Fatalf("record failed: %+v", rec.Query)
		}
		if rec.DNSTime > 0 {
			withDNS++
			dnsMS = append(dnsMS, float64(rec.DNSTime)/1e6)
		} else {
			without++
		}
	}
	// 20s interval vs 45s TTL: roughly every other lookup is a miss.
	if withDNS == 0 || without == 0 {
		t.Fatalf("TTL caching not exercised: %d misses, %d hits", withDNS, without)
	}
	if resolver.CacheHits() != without {
		t.Fatalf("cache hits %d vs zero-cost records %d", resolver.CacheHits(), without)
	}
	// DNS must be small relative to the fetch (google-like ≈ 60 ms).
	var fetchMS []float64
	for _, rec := range ds.Records {
		if rec.TrueFetch > 0 {
			fetchMS = append(fetchMS, float64(rec.TrueFetch)/1e6)
		}
	}
	medDNS, medFetch := stats.Median(dnsMS), stats.Median(fetchMS)
	if medDNS >= medFetch/2 {
		t.Fatalf("DNS (%.1f ms) not clearly below fetch (%.1f ms)", medDNS, medFetch)
	}
	t.Logf("median DNS resolution %.1f ms vs median fetch %.1f ms", medDNS, medFetch)
}

func TestResolverDeterministic(t *testing.T) {
	dep := buildDep(t)
	run := func() []simnet.HostID {
		r := dns.New(dep, dns.Config{Policy: dns.PolicyRotateK, K: 3, TTL: time.Nanosecond, Seed: 7})
		var out []simnet.HostID
		p := geo.Point{Lat: 34.05, Lon: -118.24}
		for i := 0; i < 20; i++ {
			fe, _ := r.Resolve(time.Duration(i)*time.Second, "c", p)
			out = append(out, fe.Host())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rotation diverged at %d", i)
		}
	}
}
