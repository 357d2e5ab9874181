package analysis_test

import (
	"testing"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/backend"
	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/simnet"
)

func TestFactorFetchRecoversLine(t *testing.T) {
	// Synthetic Fig-9 points on a known line: y = 0.08x + 260.
	var pts []analysis.DistancePoint
	for _, miles := range []float64{50, 150, 400, 800, 1500} {
		pts = append(pts, analysis.DistancePoint{
			Miles: miles, TdynamicMS: 0.08*miles + 260,
		})
	}
	res := analysis.FactorFetch(pts)
	if res.ProcTimeMS < 259 || res.ProcTimeMS > 261 {
		t.Fatalf("intercept = %.2f, want 260", res.ProcTimeMS)
	}
	if res.SlopeMSPerMile < 0.079 || res.SlopeMSPerMile > 0.081 {
		t.Fatalf("slope = %.4f, want 0.08", res.SlopeMSPerMile)
	}
	if res.Fit.R2 < 0.999 {
		t.Fatalf("R2 = %v", res.Fit.R2)
	}
}

func TestFig9PointsFiltering(t *testing.T) {
	params := []analysis.Params{
		{FE: "fe-a", RTT: 5 * time.Millisecond, Tdynamic: 100 * time.Millisecond},
		{FE: "fe-a", RTT: 6 * time.Millisecond, Tdynamic: 120 * time.Millisecond},
		{FE: "fe-a", RTT: 500 * time.Millisecond, Tdynamic: 900 * time.Millisecond}, // far client: excluded
		{FE: "fe-b", RTT: 4 * time.Millisecond, Tdynamic: 200 * time.Millisecond},
		{FE: "fe-unknown", RTT: 4 * time.Millisecond, Tdynamic: 50 * time.Millisecond},
	}
	miles := map[simnet.HostID]float64{"fe-a": 100, "fe-b": 700}
	pts := analysis.Fig9Points(params, miles, 30*time.Millisecond)
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2 (unknown FE and far client dropped)", len(pts))
	}
	for _, p := range pts {
		switch p.FE {
		case "fe-a":
			if p.TdynamicMS != 110 {
				t.Fatalf("fe-a median = %v, want 110", p.TdynamicMS)
			}
		case "fe-b":
			if p.Miles != 700 {
				t.Fatalf("fe-b miles = %v", p.Miles)
			}
		default:
			t.Fatalf("unexpected FE %s", p.FE)
		}
	}
}

// TestFig9EndToEnd runs the Section-5 experiment against a single-BE
// Google-like deployment and checks that the regression separates
// processing time (intercept near the configured BE cost) from distance
// delay (positive slope).
func TestFig9EndToEnd(t *testing.T) {
	cfg := cdn.SingleBE(cdn.GoogleLike(1), "google-be-lenoir")
	r, err := emulator.New(43, cfg, emulator.Options{Nodes: 80, FleetSeed: 12})
	if err != nil {
		t.Fatal(err)
	}
	ds := r.RunExperimentA(emulator.AOptions{
		QueriesPerNode: 6, Interval: 3 * time.Second, QuerySeed: 8,
	})
	params := analysis.ExtractDataset(ds, analysis.BoundaryFromDataset(ds))
	if len(params) == 0 {
		t.Fatal("no params extracted")
	}
	pts := analysis.Fig9Points(params, r.Dep.FEBEDistances(), 40*time.Millisecond)
	if len(pts) < 3 {
		t.Fatalf("only %d Fig-9 points", len(pts))
	}
	res := analysis.FactorFetch(pts)
	if res.SlopeMSPerMile <= 0 {
		t.Fatalf("slope = %.4f, want positive (distance costs delay)", res.SlopeMSPerMile)
	}
	// Configured Google BE base ≈ 24 ms + per-term + FE queuing: the
	// intercept should land in the tens of milliseconds, far below a
	// Bing-like many-hundreds value.
	if res.ProcTimeMS < 10 || res.ProcTimeMS > 120 {
		t.Fatalf("intercept = %.1f ms, want tens of ms for Google-like", res.ProcTimeMS)
	}
	t.Logf("fig9: Tdyn = %.4f·miles + %.1f ms (R²=%.2f, %d FEs)",
		res.SlopeMSPerMile, res.ProcTimeMS, res.Fit.R2, len(pts))
}

// TestCachingProbeEndToEnd reproduces the Section-3 experiment: with the
// deployed configuration (no result caching) the same-query and
// distinct-query Tdynamic distributions are indistinguishable; with a
// BE result cache enabled, the methodology detects it.
func TestCachingProbeEndToEnd(t *testing.T) {
	run := func(cache bool) analysis.CacheVerdict {
		cfg := cdn.GoogleLike(1)
		cfg.BEOptions = backend.Options{CacheResults: cache, CacheHitTime: 2 * time.Millisecond}
		r, err := emulator.New(44, cfg, emulator.Options{Nodes: 20, FleetSeed: 13})
		if err != nil {
			t.Fatal(err)
		}
		fe := r.Dep.FEs[0]
		same, distinct := r.CachingProbe(fe, 6, 2*time.Second, 9)
		b := analysis.BoundaryFromDataset(distinct)
		if b <= 0 {
			t.Fatal("no boundary from distinct dataset")
		}
		// Small-RTT sessions only: at large RTT, Tdynamic is bound by
		// static-delivery window rounds and masks the fetch.
		nearOnly := func(ps []analysis.Params) []analysis.Params {
			out := ps[:0:0]
			for _, p := range ps {
				if p.RTT <= 25*time.Millisecond {
					out = append(out, p)
				}
			}
			return out
		}
		sp := nearOnly(analysis.ExtractDataset(same, b))
		dp := nearOnly(analysis.ExtractDataset(distinct, b))
		if len(sp) == 0 || len(dp) == 0 {
			t.Fatalf("empty probe params: %d/%d", len(sp), len(dp))
		}
		return analysis.DetectCaching(sp, dp, 0.5)
	}
	off := run(false)
	if off.CachingDetected {
		t.Fatalf("false positive: caching detected without a cache (KS=%.2f, %0.f vs %.0f ms)",
			off.KS, off.MedianSameMS, off.MedianDistinctMS)
	}
	on := run(true)
	if !on.CachingDetected {
		t.Fatalf("false negative: cache not detected (KS=%.2f, same=%.0f distinct=%.0f ms)",
			on.KS, on.MedianSameMS, on.MedianDistinctMS)
	}
	t.Logf("no-cache KS=%.2f; cache KS=%.2f same=%.0fms distinct=%.0fms",
		off.KS, on.KS, on.MedianSameMS, on.MedianDistinctMS)
}

// TestTermEffectEndToEnd answers the reviewers' question: fetch time
// should correlate positively with query term count.
func TestTermEffectEndToEnd(t *testing.T) {
	cfg := cdn.GoogleLike(1)
	// Make the per-term cost pronounced and deterministic.
	cfg.Cost.PerTerm = 15 * time.Millisecond
	cfg.Cost.CV = 0.05
	r, err := emulator.New(46, cfg, emulator.Options{Nodes: 12, FleetSeed: 14})
	if err != nil {
		t.Fatal(err)
	}
	fe := r.Dep.FEs[0]
	node := r.NearestNode(fe)
	// Mixed-complexity corpus against a near node.
	var ds *emulator.Dataset
	sweep := r.KeywordSweep(fe, node, 10, 2*time.Second, 21)
	merged := &emulator.Dataset{}
	for _, sd := range sweep {
		merged.Records = append(merged.Records, sd.Records...)
	}
	ds = merged
	boundary := analysis.BoundaryFromDataset(ds)
	if boundary <= 0 {
		t.Fatal("no boundary")
	}
	params := analysis.ExtractDataset(ds, boundary)
	pts, fit := analysis.TermEffect(params, 50*time.Millisecond)
	if len(pts) < 3 {
		t.Fatalf("term buckets = %d", len(pts))
	}
	if fit.Slope <= 5 {
		t.Fatalf("term slope = %.2f ms/term, want > 5 (PerTerm=15ms)", fit.Slope)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Terms <= pts[i-1].Terms {
			t.Fatal("buckets not sorted")
		}
	}
	t.Logf("term effect: %.1f ms/term (R²=%.2f) over %d buckets", fit.Slope, fit.R2, len(pts))
}

func TestTermEffectEmpty(t *testing.T) {
	pts, fit := analysis.TermEffect(nil, time.Second)
	if len(pts) != 0 || fit.N != 0 {
		t.Fatal("empty input produced output")
	}
}

func TestFactorFetchCI(t *testing.T) {
	var pts []analysis.DistancePoint
	for i, miles := range []float64{50, 150, 400, 800, 1500, 2200} {
		noise := float64(i%3) - 1 // deterministic ±1 ms jitter
		pts = append(pts, analysis.DistancePoint{
			Miles: miles, TdynamicMS: 0.08*miles + 260 + noise,
		})
	}
	res := analysis.FactorFetchCI(pts, 500, 7)
	if !res.SlopeCI.Contains(res.SlopeMSPerMile) {
		t.Fatalf("slope CI [%.4f, %.4f] misses point estimate %.4f",
			res.SlopeCI.Lo, res.SlopeCI.Hi, res.SlopeMSPerMile)
	}
	if !res.ProcCI.Contains(res.ProcTimeMS) {
		t.Fatalf("intercept CI [%.1f, %.1f] misses point estimate %.1f",
			res.ProcCI.Lo, res.ProcCI.Hi, res.ProcTimeMS)
	}
	if res.SlopeCI.Width() <= 0 || res.ProcCI.Width() <= 0 {
		t.Fatal("degenerate CI")
	}
	// Deterministic.
	res2 := analysis.FactorFetchCI(pts, 500, 7)
	if res.SlopeCI != res2.SlopeCI || res.ProcCI != res2.ProcCI {
		t.Fatal("CI nondeterministic for equal seeds")
	}
}

func TestEstimateProcPerFEConsistent(t *testing.T) {
	// Synthetic service: Tproc = 40ms, C·RTTbe = 0.05 ms/mile·C with
	// C=1. Estimates must recover 40ms per FE with zero spread.
	var pts []analysis.DistancePoint
	for i, miles := range []float64{100, 300, 700, 1200} {
		pts = append(pts, analysis.DistancePoint{
			FE: simnet.HostID(string(rune('a' + i))), Miles: miles,
			TdynamicMS: 40 + 0.05*miles,
		})
	}
	ests := analysis.EstimateProcPerFE(pts, 0.05, 1)
	if len(ests) != 4 {
		t.Fatalf("estimates = %d", len(ests))
	}
	for _, e := range ests {
		if e.TprocMS < 39.99 || e.TprocMS > 40.01 {
			t.Fatalf("FE %s Tproc = %.2f, want 40", e.FE, e.TprocMS)
		}
	}
	med, disp := analysis.ProcSpread(ests)
	if med < 39.9 || med > 40.1 || disp > 0.01 {
		t.Fatalf("spread: median %.2f dispersion %.3f", med, disp)
	}
	// Overestimated RTT clamps at zero rather than going negative.
	clamped := analysis.EstimateProcPerFE(pts, 10, 1)
	for _, e := range clamped {
		if e.TprocMS < 0 {
			t.Fatalf("negative Tproc %v", e.TprocMS)
		}
	}
	if m, d := analysis.ProcSpread(nil); m != 0 || d != 0 {
		t.Fatal("empty spread")
	}
}

// TestEstimateProcEndToEnd validates the coordinate-based factoring on
// measured data: per-FE Tproc estimates for the single-BE Google-like
// deployment should be consistent and near the regression intercept.
func TestEstimateProcEndToEnd(t *testing.T) {
	cfg := cdn.SingleBE(cdn.GoogleLike(1), "google-be-lenoir")
	r, err := emulator.New(43, cfg, emulator.Options{Nodes: 80, FleetSeed: 12})
	if err != nil {
		t.Fatal(err)
	}
	ds := r.RunExperimentA(emulator.AOptions{
		QueriesPerNode: 6, Interval: 3 * time.Second, QuerySeed: 8,
	})
	params := analysis.ExtractDataset(ds, analysis.BoundaryFromDataset(ds))
	pts := analysis.Fig9Points(params, r.Dep.FEBEDistances(), 40*time.Millisecond)
	reg := analysis.FactorFetch(pts)
	// Use the fitted slope as the distance→RTT·C factor (a measured
	// stand-in for the virtual-coordinate estimate).
	ests := analysis.EstimateProcPerFE(pts, reg.SlopeMSPerMile, 1)
	med, disp := analysis.ProcSpread(ests)
	if disp > 0.25 {
		t.Fatalf("per-FE Tproc dispersion %.2f too high (median %.1f ms)", disp, med)
	}
	diff := med - reg.ProcTimeMS
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.2*reg.ProcTimeMS+5 {
		t.Fatalf("coordinate estimate %.1f ms vs regression intercept %.1f ms", med, reg.ProcTimeMS)
	}
	t.Logf("per-FE Tproc: median %.1f ms (dispersion %.2f) vs intercept %.1f ms",
		med, disp, reg.ProcTimeMS)
}
