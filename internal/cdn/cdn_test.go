package cdn_test

import (
	"fmt"
	"testing"
	"time"

	"fesplit/internal/cdn"
	"fesplit/internal/geo"
	"fesplit/internal/simnet"
	"fesplit/internal/vantage"
)

func TestBuildGoogleLike(t *testing.T) {
	sim := simnet.New(1)
	n := simnet.NewNetwork(sim)
	d, err := cdn.Build(n, cdn.GoogleLike(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.FEs) != 5 {
		t.Fatalf("FEs = %d, want %d", len(d.FEs), 5)
	}
	if len(d.BEs) != 4 {
		t.Fatalf("BEs = %d", len(d.BEs))
	}
}

func TestBuildBingLikeDenser(t *testing.T) {
	sim := simnet.New(1)
	n := simnet.NewNetwork(sim)
	g, err := cdn.Build(n, cdn.GoogleLike(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cdn.Build(n, cdn.BingLike(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.FEs) <= len(g.FEs) {
		t.Fatalf("Bing fleet (%d) must be denser than Google's (%d)",
			len(b.FEs), len(g.FEs))
	}
}

func TestBuildValidation(t *testing.T) {
	sim := simnet.New(1)
	n := simnet.NewNetwork(sim)
	if _, err := cdn.Build(n, cdn.Config{Name: "x"}); err == nil {
		t.Fatal("empty deployment accepted")
	}
}

func TestDefaultFEIsNearest(t *testing.T) {
	sim := simnet.New(1)
	n := simnet.NewNetwork(sim)
	d, err := cdn.Build(n, cdn.GoogleLike(1))
	if err != nil {
		t.Fatal(err)
	}
	// Minneapolis (no Google FE metro): nearest of the fleet is Chicago.
	msp := geo.Point{Lat: 44.9778, Lon: -93.2650}
	fe := d.DefaultFE(msp)
	if fe.Site().Name != "metro-chicago" {
		t.Fatalf("default FE for MSP = %s, want metro-chicago", fe.Site().Name)
	}
}

func TestFEByHost(t *testing.T) {
	sim := simnet.New(1)
	n := simnet.NewNetwork(sim)
	d, err := cdn.Build(n, cdn.GoogleLike(1))
	if err != nil {
		t.Fatal(err)
	}
	fe := d.FEs[3]
	if got := d.FEByHost(fe.Host()); got != fe {
		t.Fatal("FEByHost lookup failed")
	}
	if d.FEByHost("nope") != nil {
		t.Fatal("bogus host found")
	}
}

func TestBEAssignmentNearest(t *testing.T) {
	sim := simnet.New(1)
	n := simnet.NewNetwork(sim)
	d, err := cdn.Build(n, cdn.GoogleLike(1))
	if err != nil {
		t.Fatal(err)
	}
	// The Seattle FE should be served by The Dalles, OR data center.
	for _, fe := range d.FEs {
		if fe.Site().Name == "metro-seattle" {
			be := d.BEOf(fe)
			if be.Site().Name != "google-be-dalles" {
				t.Fatalf("Seattle FE served by %s", be.Site().Name)
			}
			return
		}
	}
	t.Fatal("no Seattle FE found")
}

func TestWireClientCreatesPaths(t *testing.T) {
	sim := simnet.New(1)
	n := simnet.NewNetwork(sim)
	d, err := cdn.Build(n, cdn.GoogleLike(1))
	if err != nil {
		t.Fatal(err)
	}
	nyc := geo.Point{Lat: 40.7128, Lon: -74.0060}
	d.WireClient("cl", nyc, time.Millisecond, 0, 0)
	fe := d.DefaultFE(nyc) // the NYC FE itself
	rtt := n.RTT("cl", fe.Host())
	// Same metro: 2×(1ms access + small geo) — well under 10 ms.
	if rtt < 2*time.Millisecond || rtt > 10*time.Millisecond {
		t.Fatalf("same-metro RTT = %v", rtt)
	}
	// A far FE must have a larger RTT.
	var far *simnet.Network // placeholder to avoid unused import issues
	_ = far
	for _, f := range d.FEs {
		if f.Site().Name == "metro-losangeles" {
			if lr := n.RTT("cl", f.Host()); lr < 40*time.Millisecond {
				t.Fatalf("NYC-LA RTT = %v, want ≥40ms", lr)
			}
		}
	}
}

// TestRTTCDFCalibration is the Figure-6 shape check: the dense Bing-like
// fleet must be markedly closer to the vantage nodes than the sparse
// Google-like fleet, with the paper's orderings at the 20 ms mark.
func TestRTTCDFCalibration(t *testing.T) {
	sim := simnet.New(1)
	n := simnet.NewNetwork(sim)
	gd, err := cdn.Build(n, cdn.GoogleLike(1))
	if err != nil {
		t.Fatal(err)
	}
	bd, err := cdn.Build(n, cdn.BingLike(2))
	if err != nil {
		t.Fatal(err)
	}
	fleet := vantage.DefaultFleet(7)
	fleet.Wire(gd)
	fleet.Wire(bd)

	frac20 := func(d *cdn.Deployment) float64 {
		under := 0
		for _, node := range fleet.Nodes {
			fe := d.DefaultFE(node.Point)
			if n.RTT(node.Host, fe.Host()) < 20*time.Millisecond {
				under++
			}
		}
		return float64(under) / float64(len(fleet.Nodes))
	}
	bing, google := frac20(bd), frac20(gd)
	if bing <= google {
		t.Fatalf("Bing FEs (%.2f under 20ms) must be closer than Google's (%.2f)", bing, google)
	}
	// Paper: Bing >80%, Google ~60%. Allow generous bands.
	if bing < 0.70 {
		t.Fatalf("Bing fraction under 20ms = %.2f, want ≥0.70", bing)
	}
	if google < 0.40 || google > 0.85 {
		t.Fatalf("Google fraction under 20ms = %.2f, want 0.40–0.85", google)
	}
}

func TestFleetPlacementDeterministic(t *testing.T) {
	a := vantage.DefaultFleet(3)
	b := vantage.DefaultFleet(3)
	if len(a.Nodes) != 250 {
		t.Fatalf("fleet size = %d", len(a.Nodes))
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("fleet placement nondeterministic at %d", i)
		}
	}
}

func TestFleetProfiles(t *testing.T) {
	c, w := vantage.CampusProfile(), vantage.WirelessProfile()
	if w.Loss <= c.Loss {
		t.Fatal("wireless should be lossier")
	}
	if w.OneWayMax <= c.OneWayMax {
		t.Fatal("wireless should have higher latency")
	}
	fl := vantage.NewFleet(10, geo.USMetros(), w, 4)
	for _, node := range fl.Nodes {
		if node.OneWay < w.OneWayMin || node.OneWay > w.OneWayMax {
			t.Fatalf("node access %v outside profile", node.OneWay)
		}
	}
}

func TestGzipDeploymentServesCompressed(t *testing.T) {
	sim := simnet.New(9)
	n := simnet.NewNetwork(sim)
	cfg := cdn.GoogleLike(5)
	cfg.Gzip = true
	d, err := cdn.Build(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = d
	// Construction suffices here; end-to-end compressed serving is
	// covered in the frontend package tests.
}

// TestClientPathsOnDemand: wiring a client records it, and its paths
// resolve on first use to exactly what an eager SetLink per server
// would have configured — both directions, both server kinds, two
// deployments on one network — while pairs nobody wired stay zero.
func TestClientPathsOnDemand(t *testing.T) {
	n := simnet.NewNetwork(simnet.New(1))
	gd, err := cdn.Build(n, cdn.GoogleLike(1))
	if err != nil {
		t.Fatal(err)
	}
	bd, err := cdn.Build(n, cdn.BingLike(2))
	if err != nil {
		t.Fatal(err)
	}
	fleet := vantage.DefaultFleet(7)
	fleet.Wire(gd)
	fleet.Wire(bd)
	fleet.WireToBEs(bd)

	check := func(host, server simnet.HostID, p geo.Point, delay geo.DelayModel, node vantage.Node) {
		t.Helper()
		want := simnet.PathParams{
			Delay:    node.OneWay + delay.OneWayBetween(node.Point, p),
			Jitter:   node.Access.Jitter,
			LossRate: node.Access.Loss,
		}
		if got := n.Path(host, server); got != want {
			t.Fatalf("%s → %s = %+v, want %+v", host, server, got, want)
		}
		if got := n.Path(server, host); got != want {
			t.Fatalf("%s → %s = %+v, want %+v", server, host, got, want)
		}
	}
	for _, node := range fleet.Nodes {
		for _, d := range []struct {
			dep *cdn.Deployment
			cfg cdn.Config
		}{{gd, cdn.GoogleLike(1)}, {bd, cdn.BingLike(2)}} {
			for _, fe := range d.dep.FEs {
				check(node.Host, fe.Host(), fe.Site().Point, d.cfg.ClientDelay, node)
			}
		}
		for _, be := range bd.BEs {
			check(node.Host, be.Host(), be.Site().Point, cdn.BingLike(2).ClientDelay, node)
		}
		for _, be := range gd.BEs {
			if p, q := n.Path(node.Host, be.Host()), n.Path(be.Host(), node.Host); p != (simnet.PathParams{}) || q != (simnet.PathParams{}) {
				t.Fatalf("%s ↔ %s not wired, got %+v / %+v", node.Host, be.Host(), p, q)
			}
		}
	}
	if p := n.Path("stranger", gd.FEs[0].Host()); p != (simnet.PathParams{}) {
		t.Fatalf("unwired host → FE = %+v", p)
	}

	// Wiring records the client and lays no path: O(1) per client, not
	// one per server.
	hosts := make([]simnet.HostID, 1001)
	for i := range hosts {
		hosts[i] = simnet.HostID(fmt.Sprintf("extra-%d", i))
	}
	i := 0
	node := fleet.Nodes[0]
	allocs := testing.AllocsPerRun(len(hosts)-1, func() {
		bd.WireClient(hosts[i], node.Point, node.OneWay, node.Access.Jitter, node.Access.Loss)
		bd.WireClientToBEs(hosts[i], node.Point, node.OneWay, node.Access.Jitter, node.Access.Loss)
		i++
	})
	if allocs > 1 {
		t.Fatalf("wiring one client allocates %.2f times, want ≤ 1 (%d FEs, %d BEs)", allocs, len(bd.FEs), len(bd.BEs))
	}
}
