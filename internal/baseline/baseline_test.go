package baseline

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/backend"
	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/stats"
	"fesplit/internal/workload"
)

func TestRunDirectProducesResults(t *testing.T) {
	res, err := RunDirect(cdn.GoogleLike(1), 25, 11, 4, 2*time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 25 {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		if r.Overall <= 0 || r.N == 0 {
			t.Fatalf("bad result %+v", r)
		}
	}
}

// TestSplitTCPBeatsDirect compares the full deployment (FE with split
// TCP) against the direct-to-BE baseline on matched fleets: FE-mediated
// delivery should win on median overall delay — the paper's premise.
func TestSplitTCPBeatsDirect(t *testing.T) {
	// Single data center — the paper's premise that BEs are "few and
	// far between" while FEs blanket the edge.
	cfg := cdn.SingleBE(cdn.GoogleLike(1), "google-be-lenoir")
	direct, err := RunDirect(cfg, 30, 11, 4, 2*time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	var directMed []float64
	for _, r := range direct {
		directMed = append(directMed, float64(r.Overall))
	}

	r, err := emulator.New(99, cfg, emulator.Options{Nodes: 30, FleetSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ds := r.RunExperimentA(emulator.AOptions{QueriesPerNode: 4, Interval: 2 * time.Second, QuerySeed: 5})
	params := analysis.ExtractDataset(ds, analysis.BoundaryFromDataset(ds))
	if len(params) == 0 {
		t.Fatal("no split-TCP params")
	}
	var feMed []float64
	for _, p := range params {
		feMed = append(feMed, float64(p.Overall))
	}

	d, f := stats.Median(directMed), stats.Median(feMed)
	if f >= d {
		t.Fatalf("FE deployment (%v) not faster than direct (%v)",
			time.Duration(f), time.Duration(d))
	}
	t.Logf("median overall: direct=%v split=%v (%.1fx)",
		time.Duration(d), time.Duration(f), d/f)
}

func TestPlacementSweepShape(t *testing.T) {
	pts, err := PlacementSweep(SweepConfig{
		TotalMiles: 2500,
		Fractions:  []float64{0.05, 0.25, 0.5, 0.75, 0.95},
		Repeats:    8,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	// The FE near the BE (fraction→1) leaves the whole client leg to
	// slow start: clearly worse than the FE near the client.
	near, far := pts[0], pts[len(pts)-1]
	if near.Overall >= far.Overall {
		t.Fatalf("FE near client (%v) not better than FE near BE (%v)",
			near.Overall, far.Overall)
	}
	// The paper's threshold: once the FE is close to the client, the
	// fetch time dominates and further moves barely help. The gain
	// from 0.25→0.05 must be a small share of the gain from 0.95→0.25.
	gainTail := float64(pts[1].Overall - pts[0].Overall)
	gainHead := float64(pts[4].Overall - pts[1].Overall)
	if gainHead <= 0 {
		t.Fatalf("no head gain: %v", pts)
	}
	if gainTail > 0.5*gainHead {
		t.Fatalf("no flattening near the client: tail gain %v vs head gain %v",
			time.Duration(gainTail), time.Duration(gainHead))
	}
	// Fetch time grows as the FE moves toward the client (longer FE-BE
	// leg).
	if near.MedFetch <= far.MedFetch {
		t.Fatalf("fetch did not grow with FE-BE distance: near=%v far=%v",
			near.MedFetch, far.MedFetch)
	}
}

func TestPlacementSweepValidation(t *testing.T) {
	if _, err := PlacementSweep(SweepConfig{Fractions: []float64{1.5}}); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	for _, loss := range []float64{-0.1, 1, 2, math.NaN()} {
		_, err := PlacementSweep(SweepConfig{ClientLoss: loss})
		if err == nil || !strings.Contains(err.Error(), "[0,1)") {
			t.Errorf("client loss %v: err = %v, want a rejection naming the range", loss, err)
		}
	}
}

func TestRunDirectRejectsEmptyFleet(t *testing.T) {
	for _, nodes := range []int{0, -3} {
		_, err := RunDirect(cdn.GoogleLike(1), nodes, 11, 4, 2*time.Second, 5)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(nodes)) {
			t.Errorf("nodes %d: err = %v, want a rejection naming the value", nodes, err)
		}
	}
}

// TestPlacementSweepCountsSamples: every point says how many queries
// its medians rest on — all of them on a clean path, none at a loss
// rate no handshake survives, where the zero medians are not delays.
func TestPlacementSweepCountsSamples(t *testing.T) {
	run := func(loss float64) PlacementPoint {
		pts, err := PlacementSweep(SweepConfig{Fractions: []float64{0.5}, Repeats: 3, ClientLoss: loss, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return pts[0]
	}
	if p := run(0); p.N != 3 || p.Fetches != 3 || p.Overall <= 0 || p.MedTdynamic <= 0 || p.MedFetch <= 0 {
		t.Errorf("clean path: %+v, want 3 completed queries, 3 fetches and positive medians", p)
	}
	if p := run(0.9); p.N != 0 || p.Overall != 0 || p.MedTdynamic != 0 {
		t.Errorf("90%% loss: %+v, want no completed query and no medians", p)
	}
}

func TestPlacementSweepLossyLastMile(t *testing.T) {
	// Discussion-section scenario: with a lossy client leg, a close FE
	// matters much more (loss recovery at small RTT is cheap).
	run := func(loss float64) []PlacementPoint {
		pts, err := PlacementSweep(SweepConfig{
			TotalMiles: 2500,
			Fractions:  []float64{0.05, 0.9},
			Repeats:    10,
			ClientLoss: loss,
			Seed:       13,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	clean := run(0)
	lossy := run(0.03)
	gapClean := float64(clean[1].Overall - clean[0].Overall)
	gapLossy := float64(lossy[1].Overall - lossy[0].Overall)
	if gapLossy <= gapClean {
		t.Fatalf("loss did not amplify the placement gap: clean=%v lossy=%v",
			time.Duration(gapClean), time.Duration(gapLossy))
	}
}

func TestDirectFullPageServed(t *testing.T) {
	// The direct baseline's BE serves static+dynamic; sanity-check via
	// a deployment with ServeFullPage through the cdn config.
	cfg := cdn.GoogleLike(1)
	cfg.BEOptions = backend.Options{ServeFullPage: true}
	static := workload.DefaultContentSpec("google-like").StaticPrefix()
	res, err := RunDirect(cfg, 5, 11, 2, time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	_ = static // content equality is covered by backend tests
}
