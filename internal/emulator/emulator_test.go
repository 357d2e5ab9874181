package emulator_test

import (
	"testing"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/simnet"
	"fesplit/internal/stats"
	"fesplit/internal/tcpsim"
	"fesplit/internal/trace"
	"fesplit/internal/workload"
)

func newRunner(t *testing.T, nodes int) *emulator.Runner {
	t.Helper()
	r, err := emulator.New(71, cdn.GoogleLike(1),
		emulator.Options{Nodes: nodes, FleetSeed: 72})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestExperimentARecordsComplete(t *testing.T) {
	r := newRunner(t, 15)
	ds := r.RunExperimentA(emulator.AOptions{
		QueriesPerNode: 3, Interval: 2 * time.Second, QuerySeed: 1,
	})
	if len(ds.Records) != 45 {
		t.Fatalf("records = %d, want 45", len(ds.Records))
	}
	for i, rec := range ds.Records {
		if rec.Failed {
			t.Fatalf("record %d failed", i)
		}
		if rec.Status != 200 {
			t.Fatalf("record %d status %d", i, rec.Status)
		}
		if rec.BodyLen == 0 || len(rec.Events) == 0 {
			t.Fatalf("record %d missing body/events", i)
		}
		if rec.DoneAt <= rec.IssuedAt {
			t.Fatalf("record %d time travel", i)
		}
	}
	if len(ds.Traces) != 15 {
		t.Fatalf("traces = %d", len(ds.Traces))
	}
	if len(ds.FEFetchTimes) == 0 {
		t.Fatal("no FE ground truth")
	}
}

func TestExperimentBNeedsFE(t *testing.T) {
	r := newRunner(t, 3)
	if _, err := r.RunExperimentB(emulator.BOptions{}); err == nil {
		t.Fatal("nil FE accepted")
	}
}

func TestExperimentBUsesOnlyFixedFE(t *testing.T) {
	r := newRunner(t, 10)
	fe := r.Dep.FEs[2]
	ds, err := r.RunExperimentB(emulator.BOptions{
		FE: fe, Repeats: 2, Interval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range ds.Records {
		if rec.FE != fe.Host() {
			t.Fatalf("record used %s, want %s", rec.FE, fe.Host())
		}
	}
}

func TestOverallDelayAccessor(t *testing.T) {
	rec := emulator.Record{IssuedAt: time.Second, DoneAt: 3 * time.Second}
	if rec.OverallDelay() != 2*time.Second {
		t.Fatal("OverallDelay wrong")
	}
}

func TestNearestNode(t *testing.T) {
	r := newRunner(t, 30)
	fe := r.Dep.FEs[0]
	near := r.NearestNode(fe)
	rttNear := r.Net.RTT(near.Host, fe.Host())
	for _, n := range r.Fleet.Nodes {
		if r.Net.RTT(n.Host, fe.Host()) < rttNear {
			t.Fatalf("node %s closer than NearestNode", n.Host)
		}
	}
}

func TestInteractiveSession(t *testing.T) {
	r := newRunner(t, 5)
	fe := r.Dep.FEs[0]
	node := r.NearestNode(fe)
	keywords := "cloud computing"
	ds := r.Interactive(fe, node, keywords, 300*time.Millisecond)
	// One query per non-empty prefix (spaces collapse with previous).
	if len(ds.Records) < len(keywords)-2 || len(ds.Records) > len(keywords) {
		t.Fatalf("records = %d for %d keystrokes", len(ds.Records), len(keywords))
	}
	ports := map[uint16]bool{}
	for i, rec := range ds.Records {
		if rec.Failed {
			t.Fatalf("keystroke %d failed", i)
		}
		ports[rec.Key.LocalPort] = true
	}
	// A fresh TCP connection per keystroke — the paper's observation.
	if len(ports) != len(ds.Records) {
		t.Fatalf("connections = %d, want one per keystroke (%d)", len(ports), len(ds.Records))
	}
	// Each per-keystroke session still fits the basic model: parse and
	// bound the fetch for the final (full-keyword) query.
	last := ds.Records[len(ds.Records)-1]
	s, err := trace.Parse(last.Key, last.Events)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Payload()) == 0 {
		t.Fatal("empty session payload")
	}
}

func TestInteractivePrefixesCheaper(t *testing.T) {
	// Shorter prefixes have fewer terms, so the back-end cost model
	// charges them less. Use a deterministic cost model (CV=0, strong
	// per-term cost) and skip the first samples, which pay the
	// persistent-connection setup.
	cfg := cdn.GoogleLike(1)
	cfg.Cost = workload.CostModel{Base: 30 * time.Millisecond, PerTerm: 10 * time.Millisecond}
	cfg.FEBEJitter = 0
	r, err := emulator.New(71, cfg, emulator.Options{Nodes: 5, FleetSeed: 72})
	if err != nil {
		t.Fatal(err)
	}
	fe := r.Dep.FEs[0]
	node := r.NearestNode(fe)
	ds := r.Interactive(fe, node, "computer science department", 500*time.Millisecond)
	fts := ds.FEFetchTimes[fe.Host()]
	if len(fts) < 12 {
		t.Fatalf("fetch samples = %d", len(fts))
	}
	var early, late time.Duration
	for _, f := range fts[3:6] { // 1-term prefixes, warm connection
		early += f
	}
	for _, f := range fts[len(fts)-3:] { // the full 3-term query
		late += f
	}
	if early >= late {
		t.Fatalf("early prefixes (%v) not cheaper than full query (%v)", early/3, late/3)
	}
}

func TestIssueOnce(t *testing.T) {
	r := newRunner(t, 3)
	fe := r.Dep.FEs[0]
	q := workload.Query{ID: 1, Keywords: "solo query", Terms: 2, Rank: 100}
	ds := r.IssueOnce(fe, r.Fleet.Nodes[0], q)
	if len(ds.Records) != 1 || ds.Records[0].Failed {
		t.Fatalf("records = %+v", ds.Records)
	}
}

func TestSnappedCampaignStillAnalyzable(t *testing.T) {
	// Payload-snapped capture: timelines remain valid; params extract
	// with an externally supplied boundary.
	full, err := emulator.New(71, cdn.GoogleLike(1),
		emulator.Options{Nodes: 10, FleetSeed: 72})
	if err != nil {
		t.Fatal(err)
	}
	fe := full.Dep.FEs[0]
	// Boundary from a full-capture probe.
	sweep := full.KeywordSweep(fe, full.NearestNode(fe), 2, 2*time.Second, 5)
	merged := &emulator.Dataset{}
	for _, sd := range sweep {
		merged.Records = append(merged.Records, sd.Records...)
	}
	boundary := analysis.BoundaryFromDataset(merged)
	if boundary <= 0 {
		t.Fatal("probe boundary not found")
	}

	snapped, err := emulator.New(71, cdn.GoogleLike(1),
		emulator.Options{Nodes: 10, FleetSeed: 72, SnapPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := snapped.RunExperimentB(emulator.BOptions{
		FE: snapped.Dep.FEs[0], Repeats: 4, Interval: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sessions are snapped → content analysis must refuse...
	if b := analysis.BoundaryFromDataset(ds); b != 0 {
		t.Fatalf("content analysis on snapped trace returned %d, want 0", b)
	}
	// …but timeline extraction with the probe boundary works.
	params := analysis.ExtractDataset(ds, boundary)
	if len(params) < len(ds.Records)*9/10 {
		t.Fatalf("extracted %d/%d snapped sessions", len(params), len(ds.Records))
	}
	for _, p := range params {
		if p.RTT <= 0 || p.Tdynamic <= 0 {
			t.Fatalf("bad params from snapped trace: %+v", p)
		}
	}
	// Memory check: snapped traces must be far smaller.
	fullBytes, snapBytes := 0, 0
	fds, err := full.RunExperimentB(emulator.BOptions{
		FE: fe, Repeats: 4, Interval: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range fds.Traces {
		for _, ev := range tr.Events {
			fullBytes += len(ev.Data)
		}
	}
	for _, tr := range ds.Traces {
		for _, ev := range tr.Events {
			snapBytes += len(ev.Data)
		}
	}
	if snapBytes != 0 {
		t.Fatalf("snapped trace retains %d payload bytes", snapBytes)
	}
	if fullBytes == 0 {
		t.Fatal("full trace retained no payload")
	}
}

func TestKeepAliveAReusesConnections(t *testing.T) {
	r := newRunner(t, 10)
	ds := r.RunKeepAliveA(emulator.AOptions{
		QueriesPerNode: 4, Interval: 2 * time.Second, QuerySeed: 1,
	})
	if len(ds.Records) != 40 {
		t.Fatalf("records = %d", len(ds.Records))
	}
	for i, rec := range ds.Records {
		if rec.Failed {
			t.Fatalf("record %d failed", i)
		}
		if rec.BodyLen == 0 {
			t.Fatalf("record %d empty body", i)
		}
	}
}

func TestKeepAliveFasterThanFreshConnections(t *testing.T) {
	fresh := newRunner(t, 12)
	dsF := fresh.RunExperimentA(emulator.AOptions{
		QueriesPerNode: 5, Interval: 2 * time.Second, QuerySeed: 2,
	})
	ka := newRunner(t, 12)
	dsK := ka.RunKeepAliveA(emulator.AOptions{
		QueriesPerNode: 5, Interval: 2 * time.Second, QuerySeed: 2,
	})
	med := func(ds *emulator.Dataset, skipFirstPerNode bool) time.Duration {
		seen := map[string]bool{}
		var xs []float64
		for _, rec := range ds.Records {
			if skipFirstPerNode && !seen[string(rec.Node)] {
				seen[string(rec.Node)] = true
				continue // the first query pays the handshake either way
			}
			xs = append(xs, float64(rec.OverallDelay()))
		}
		return time.Duration(stats.Median(xs))
	}
	f, k := med(dsF, true), med(dsK, true)
	if k >= f {
		t.Fatalf("keep-alive (%v) not faster than fresh connections (%v)", k, f)
	}
	t.Logf("median overall: fresh=%v keep-alive=%v (saves %v)", f, k, f-k)
}

// TestInitCwndLowersOverallDelay is ablation A3 (EXPERIMENTS.md): the
// FE→client initial congestion window. A larger window delivers the
// result page in fewer round trips, so the median measured overall
// delay over one 25-node campaign must not rise from IW 1 to 3 to 10,
// and must be strictly lower at 10 than at 1.
func TestInitCwndLowersOverallDelay(t *testing.T) {
	const seed = 1234
	median := func(iw int) float64 {
		cfg := cdn.GoogleLike(seed)
		cfg.FETCP = tcpsim.Config{InitialCwnd: iw}
		r, err := emulator.New(seed+int64(iw), cfg, emulator.Options{Nodes: 25, FleetSeed: seed + 9})
		if err != nil {
			t.Fatal(err)
		}
		ds := r.RunExperimentA(emulator.AOptions{
			QueriesPerNode: 4, Interval: 2 * time.Second, QuerySeed: seed + 8,
		})
		params := analysis.ExtractDataset(ds, 0)
		if len(params) != 25*4 {
			t.Fatalf("IW %d: measured %d of %d queries", iw, len(params), 25*4)
		}
		var overall []float64
		for _, p := range params {
			overall = append(overall, float64(p.Overall))
		}
		return stats.Median(overall)
	}
	iw1, iw3, iw10 := median(1), median(3), median(10)
	if iw3 > iw1 || iw10 > iw3 || iw10 >= iw1 {
		t.Fatalf("median overall delay IW1=%v IW3=%v IW10=%v: want non-increasing, and IW10 < IW1",
			time.Duration(iw1), time.Duration(iw3), time.Duration(iw10))
	}
	t.Logf("median overall: IW1=%v IW3=%v IW10=%v", time.Duration(iw1), time.Duration(iw3), time.Duration(iw10))
}

func TestFailedRecordsSkippedByAnalysis(t *testing.T) {
	// Sever one node's path to its FE: its records fail; extraction
	// skips them without corrupting the rest.
	r := newRunner(t, 8)
	victim := r.Fleet.Nodes[0]
	fe := r.Dep.DefaultFE(victim.Point)
	r.Net.SetLink(victim.Host, fe.Host(), cdnPathDown())
	ds := r.RunExperimentA(emulator.AOptions{
		QueriesPerNode: 2, Interval: 2 * time.Second, QuerySeed: 3,
	})
	failed := 0
	for _, rec := range ds.Records {
		if rec.Failed {
			failed++
			if rec.Node != victim.Host {
				t.Fatalf("unexpected failure on %s", rec.Node)
			}
		}
	}
	if failed == 0 {
		t.Fatal("severed node produced no failures")
	}
	params := analysis.ExtractDataset(ds, 0)
	for _, p := range params {
		if p.Node == victim.Host {
			t.Fatal("failed node leaked into params")
		}
	}
	if len(params) == 0 {
		t.Fatal("analysis lost the healthy nodes")
	}
}

// cdnPathDown returns a fully lossy path (an outage).
func cdnPathDown() simnet.PathParams {
	return simnet.PathParams{Delay: time.Millisecond, LossRate: 1}
}
