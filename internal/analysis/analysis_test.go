package analysis_test

import (
	"testing"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/frontend"
	"fesplit/internal/trace"
)

func TestStaticBoundaryLCP(t *testing.T) {
	a := []byte("commonPREFIXaaa")
	b := []byte("commonPREFIXbbbb")
	c := []byte("commonPREFIXcc")
	if got := analysis.StaticBoundary([][]byte{a, b, c}); got != 12 {
		t.Fatalf("LCP = %d, want 12", got)
	}
	if got := analysis.StaticBoundary(nil); got != 0 {
		t.Fatalf("empty LCP = %d", got)
	}
	if got := analysis.StaticBoundary([][]byte{a}); got != len(a) {
		t.Fatalf("single LCP = %d", got)
	}
	if got := analysis.StaticBoundary([][]byte{[]byte("xy"), []byte("ab")}); got != 0 {
		t.Fatalf("disjoint LCP = %d", got)
	}
}

// boundaryOf derives the service's static/dynamic stream boundary by
// running a tiny keyword sweep (distinct queries) through the FE and
// applying the cross-query content analysis to the wire payloads.
func boundaryOf(t *testing.T, r *emulator.Runner, fe *frontend.Server) int {
	t.Helper()
	// Probe from the node nearest the FE so the static portion drains
	// before the dynamic portion arrives (a clean packet edge).
	probe := r.Fleet.Nodes[0]
	for _, n := range r.Fleet.Nodes[1:] {
		if r.Net.RTT(n.Host, fe.Host()) < r.Net.RTT(probe.Host, fe.Host()) {
			probe = n
		}
	}
	sweep := r.KeywordSweep(fe, probe, 2, 2*time.Second, 77)
	var sessions []*trace.Session
	for _, ds := range sweep {
		for _, rec := range ds.Records {
			if rec.Failed || len(rec.Events) == 0 {
				continue
			}
			s, err := trace.Parse(rec.Key, rec.Events)
			if err != nil {
				continue
			}
			sessions = append(sessions, s)
			break
		}
	}
	if len(sessions) < 2 {
		t.Fatal("not enough distinct payloads for content analysis")
	}
	return analysis.BoundaryFromSessions(sessions)
}

// TestModelPredictionsExperimentB is the core end-to-end validation of
// the paper's Section-2 model against the full simulated pipeline:
// fixed FE, nodes at many RTTs, then (a) content analysis finds the
// static boundary, (b) Tstatic is far less RTT-sensitive than Tdynamic,
// (c) Tdynamic grows with RTT at large RTT, (d) Tdelta shrinks with RTT
// and vanishes beyond a threshold, and (e) the inferred bounds contain
// the ground-truth fetch time.
func TestModelPredictionsExperimentB(t *testing.T) {
	cfg := cdn.GoogleLike(1)
	r, err := emulator.New(42, cfg, emulator.Options{Nodes: 60, FleetSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	fe := r.Dep.FEByHost("google-like-fe-metro-chicago")
	if fe == nil {
		t.Fatal("chicago FE missing")
	}

	// (a) Content analysis: boundary = HTTP header + static prefix.
	boundary := boundaryOf(t, r, fe)
	wantStatic := len(cfg.Spec.StaticPrefix())
	if boundary <= wantStatic || boundary > wantStatic+256 {
		t.Fatalf("content boundary = %d, want %d + small HTTP header", boundary, wantStatic)
	}

	ds, err := r.RunExperimentB(emulator.BOptions{
		FE: fe, Repeats: 12, Interval: 3 * time.Second, QuerySeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := analysis.ExtractDataset(ds, boundary)
	if len(params) < len(ds.Records)*9/10 {
		t.Fatalf("extracted %d/%d sessions", len(params), len(ds.Records))
	}
	nodes := analysis.PerNode(params)
	if len(nodes) != 60 {
		t.Fatalf("nodes = %d", len(nodes))
	}

	third := len(nodes) / 3
	lo, hi := nodes[:third], nodes[len(nodes)-third:]
	avg := func(ns []analysis.NodeSummary, f func(analysis.NodeSummary) time.Duration) time.Duration {
		var total time.Duration
		for _, n := range ns {
			total += f(n)
		}
		return total / time.Duration(len(ns))
	}
	rttLo := avg(lo, func(n analysis.NodeSummary) time.Duration { return n.RTT })
	rttHi := avg(hi, func(n analysis.NodeSummary) time.Duration { return n.RTT })
	if rttHi < 2*rttLo {
		t.Fatalf("fleet lacks RTT spread: %v vs %v", rttLo, rttHi)
	}

	// (c) Tdynamic grows with RTT.
	dynLo := avg(lo, func(n analysis.NodeSummary) time.Duration { return n.MedDynamic })
	dynHi := avg(hi, func(n analysis.NodeSummary) time.Duration { return n.MedDynamic })
	if dynHi <= dynLo {
		t.Fatalf("Tdynamic did not grow with RTT: lo=%v hi=%v", dynLo, dynHi)
	}

	// (d) Tdelta shrinks with RTT.
	delLo := avg(lo, func(n analysis.NodeSummary) time.Duration { return n.MedDelta })
	delHi := avg(hi, func(n analysis.NodeSummary) time.Duration { return n.MedDelta })
	if delHi >= delLo {
		t.Fatalf("Tdelta did not shrink with RTT: lo=%v hi=%v", delLo, delHi)
	}

	// (b) Tstatic stays the minor component and its RTT sensitivity is
	// bounded by ~one extra slow-start round (slope ≤ ~1.2). Note the
	// identity Tdynamic = Tstatic + Tdelta forces Tstatic to absorb
	// Tdelta's decline when Tdynamic is flat; see EXPERIMENTS.md.
	stLo := avg(lo, func(n analysis.NodeSummary) time.Duration { return n.MedStatic })
	stHi := avg(hi, func(n analysis.NodeSummary) time.Duration { return n.MedStatic })
	stSlope := float64(stHi-stLo) / float64(rttHi-rttLo)
	if stSlope > 1.2 {
		t.Fatalf("Tstatic RTT slope %.2f exceeds one window round", stSlope)
	}
	// At low RTT the fetch dominates, so Tstatic < Tdynamic; at high
	// RTT the clusters coalesce and the two converge (Tdelta → 0).
	if stLo >= dynLo {
		t.Fatalf("Tstatic (%v) not the minor component of Tdynamic (%v) at low RTT",
			stLo, dynLo)
	}
	if stHi > dynHi {
		t.Fatalf("Tstatic (%v) exceeded Tdynamic (%v) — identity violated", stHi, dynHi)
	}

	// (e) Inference bounds contain the FE's ground-truth fetch time.
	lob, truth, hib, ok := analysis.ValidateBounds(params, ds.FEFetchTimes[fe.Host()])
	if !ok {
		t.Fatalf("bounds [%.1f, %.1f] ms do not contain ground truth %.1f ms", lob, hib, truth)
	}
	t.Logf("bounds: Tdelta=%.1fms ≤ Tfetch=%.1fms ≤ Tdynamic=%.1fms", lob, truth, hib)
	t.Logf("RTT lo/hi=%v/%v dyn=%v/%v delta=%v/%v static=%v/%v",
		rttLo, rttHi, dynLo, dynHi, delLo, delHi, stLo, stHi)
}

func TestDeltaThresholdDetection(t *testing.T) {
	// Synthetic node summaries: Tdelta positive below 100ms RTT, zero
	// above.
	mk := func(rtt, delta time.Duration) analysis.NodeSummary {
		return analysis.NodeSummary{RTT: rtt, MedDelta: delta}
	}
	nodes := []analysis.NodeSummary{
		mk(10*time.Millisecond, 90*time.Millisecond),
		mk(50*time.Millisecond, 50*time.Millisecond),
		mk(100*time.Millisecond, 1*time.Millisecond),
		mk(150*time.Millisecond, 0),
		mk(200*time.Millisecond, 0),
	}
	thr, ok := analysis.DeltaThreshold(nodes, 2*time.Millisecond)
	if !ok || thr != 100*time.Millisecond {
		t.Fatalf("threshold = %v ok=%v, want 100ms", thr, ok)
	}
	// All deltas positive → not found.
	if _, ok := analysis.DeltaThreshold(nodes[:2], 2*time.Millisecond); ok {
		t.Fatal("threshold found where none exists")
	}
	// Empty input.
	if _, ok := analysis.DeltaThreshold(nil, 0); ok {
		t.Fatal("threshold on empty input")
	}
}

func TestPerNodeOrderStableOnEqualRTT(t *testing.T) {
	// Two nodes share a median RTT: their relative order must come from
	// the node name, never from map iteration.
	params := []analysis.Params{
		{Node: "node-b", RTT: 20 * time.Millisecond},
		{Node: "node-a", RTT: 20 * time.Millisecond},
		{Node: "node-c", RTT: 5 * time.Millisecond},
	}
	for i := 0; i < 50; i++ {
		nodes := analysis.PerNode(params)
		if len(nodes) != 3 || nodes[0].Node != "node-c" || nodes[1].Node != "node-a" || nodes[2].Node != "node-b" {
			t.Fatalf("call %d: order %v %v %v, want node-c node-a node-b",
				i, nodes[0].Node, nodes[1].Node, nodes[2].Node)
		}
	}
}

func TestRTTCDFConstruction(t *testing.T) {
	nodes := []analysis.NodeSummary{
		{RTT: 5 * time.Millisecond},
		{RTT: 15 * time.Millisecond},
		{RTT: 50 * time.Millisecond},
		{RTT: 120 * time.Millisecond},
	}
	cdf := analysis.RTTCDF(nodes)
	if got := cdf.At(20); got != 0.5 {
		t.Fatalf("F(20ms) = %v, want 0.5", got)
	}
	if cdf.N() != 4 {
		t.Fatalf("N = %d", cdf.N())
	}
}

func TestValidateBoundsEdges(t *testing.T) {
	if _, _, _, ok := analysis.ValidateBounds(nil, nil); ok {
		t.Fatal("empty inputs validated")
	}
	params := []analysis.Params{{Tdelta: 10 * time.Millisecond, Tdynamic: 100 * time.Millisecond}}
	// Truth outside the bounds must fail.
	if _, _, _, ok := analysis.ValidateBounds(params, []time.Duration{500 * time.Millisecond}); ok {
		t.Fatal("out-of-bounds truth validated")
	}
	if lo, truth, hi, ok := analysis.ValidateBounds(params, []time.Duration{50 * time.Millisecond}); !ok {
		t.Fatalf("in-bounds truth rejected: %v %v %v", lo, truth, hi)
	}
}

func TestFetchBoundsAccessors(t *testing.T) {
	p := analysis.Params{Tdelta: 3 * time.Millisecond, Tdynamic: 30 * time.Millisecond}
	lo, hi := p.FetchBounds()
	if lo != 3*time.Millisecond || hi != 30*time.Millisecond {
		t.Fatalf("bounds = %v %v", lo, hi)
	}
}

// TestBoundaryCrossCheck validates the content-derived boundary against
// per-session temporal clustering on near-node sessions, as the paper
// does by combining both methods.
func TestBoundaryCrossCheck(t *testing.T) {
	cfg := cdn.GoogleLike(1)
	r, err := emulator.New(47, cfg, emulator.Options{Nodes: 20, FleetSeed: 15})
	if err != nil {
		t.Fatal(err)
	}
	fe := r.Dep.FEs[0]
	node := r.NearestNode(fe)
	sweep := r.KeywordSweep(fe, node, 8, 2*time.Second, 33)
	var sessions []*trace.Session
	merged := &emulator.Dataset{}
	for _, sd := range sweep {
		merged.Records = append(merged.Records, sd.Records...)
		for _, rec := range sd.Records {
			if rec.Failed || len(rec.Events) == 0 {
				continue
			}
			if s, err := trace.Parse(rec.Key, rec.Events); err == nil {
				sessions = append(sessions, s)
			}
		}
	}
	boundary := analysis.BoundaryFromDataset(merged)
	if boundary <= 0 {
		t.Fatal("no content boundary")
	}
	agree, conclusive := analysis.BoundaryCrossCheck(sessions, boundary, 1460)
	if conclusive < len(sessions)/2 {
		t.Fatalf("only %d/%d sessions had conclusive clustering", conclusive, len(sessions))
	}
	if agree < 0.9 {
		t.Fatalf("temporal/content agreement = %.2f, want ≥0.9", agree)
	}
	t.Logf("cross-check: %.0f%% agreement over %d conclusive sessions", 100*agree, conclusive)
}

func TestBoundaryCrossCheckEmpty(t *testing.T) {
	if agree, n := analysis.BoundaryCrossCheck(nil, 100, 1460); agree != 0 || n != 0 {
		t.Fatal("empty input produced results")
	}
}
