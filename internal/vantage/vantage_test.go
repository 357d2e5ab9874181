package vantage

import (
	"testing"

	"fesplit/internal/geo"
)

func TestDefaultFleetSizeAndDeterminism(t *testing.T) {
	a, b := DefaultFleet(3), DefaultFleet(3)
	if len(a.Nodes) != 250 {
		t.Fatalf("size = %d", len(a.Nodes))
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
	c := DefaultFleet(4)
	same := 0
	for i := range a.Nodes {
		if a.Nodes[i].Point == c.Nodes[i].Point {
			same++
		}
	}
	if same == len(a.Nodes) {
		t.Fatal("different seeds produced identical placement")
	}
}

func TestNodesNearTheirMetro(t *testing.T) {
	metros := geo.USMetros()
	byName := map[string]geo.Point{}
	for _, m := range metros {
		byName[m.Name] = m.Point
	}
	f := NewFleet(100, metros, CampusProfile(), 9)
	for _, n := range f.Nodes {
		center, ok := byName[n.Metro]
		if !ok {
			t.Fatalf("node %s has unknown metro %s", n.Host, n.Metro)
		}
		if d := geo.DistanceMiles(n.Point, center); d > 40 {
			t.Fatalf("node %s is %.0f miles from its metro", n.Host, d)
		}
	}
}

func TestAccessWithinProfileBounds(t *testing.T) {
	p := WirelessProfile()
	f := NewFleet(50, geo.WorldMetros(), p, 11)
	for _, n := range f.Nodes {
		if n.OneWay < p.OneWayMin || n.OneWay > p.OneWayMax {
			t.Fatalf("node %s access %v outside [%v, %v]",
				n.Host, n.OneWay, p.OneWayMin, p.OneWayMax)
		}
		if n.Access != p {
			t.Fatal("profile not recorded on node")
		}
	}
}

func TestProfileContrast(t *testing.T) {
	c, w := CampusProfile(), WirelessProfile()
	if c.Loss != 0 {
		t.Fatalf("campus loss = %v, paper observed none", c.Loss)
	}
	if w.Loss <= 0 || w.Jitter <= c.Jitter {
		t.Fatalf("wireless profile not worse: %+v vs %+v", w, c)
	}
}

func TestHostNamesUnique(t *testing.T) {
	f := DefaultFleet(6)
	seen := map[string]bool{}
	for _, n := range f.Nodes {
		if seen[string(n.Host)] {
			t.Fatalf("duplicate host %s", n.Host)
		}
		seen[string(n.Host)] = true
	}
}
