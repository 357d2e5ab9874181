package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDistanceKnownPairs(t *testing.T) {
	nyc := Point{40.7128, -74.0060}
	la := Point{34.0522, -118.2437}
	// Great-circle NYC–LA is ~2451 miles.
	d := DistanceMiles(nyc, la)
	if d < 2400 || d > 2500 {
		t.Fatalf("NYC-LA = %.0f miles, want ~2451", d)
	}
	chi := Point{41.8781, -87.6298}
	msp := Point{44.9778, -93.2650}
	d = DistanceMiles(chi, msp)
	if d < 330 || d > 380 {
		t.Fatalf("CHI-MSP = %.0f miles, want ~355", d)
	}
}

func TestDistanceZeroAndSymmetry(t *testing.T) {
	p := Point{35.9140, -81.5390}
	if d := DistanceMiles(p, p); d != 0 {
		t.Fatalf("self-distance = %v", d)
	}
	f := func(a, b Point) bool {
		a.Lat = clamp(a.Lat, -90, 90)
		b.Lat = clamp(b.Lat, -90, 90)
		a.Lon = clamp(a.Lon, -180, 180)
		b.Lon = clamp(b.Lon, -180, 180)
		d1, d2 := DistanceMiles(a, b), DistanceMiles(b, a)
		return math.Abs(d1-d2) < 1e-6 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(a, b, c Point) bool {
		for _, p := range []*Point{&a, &b, &c} {
			p.Lat = clamp(p.Lat, -90, 90)
			p.Lon = clamp(p.Lon, -180, 180)
		}
		ab := DistanceMiles(a, b)
		bc := DistanceMiles(b, c)
		ac := DistanceMiles(a, c)
		return ac <= ab+bc+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clamp(x, lo, hi float64) float64 {
	if math.IsNaN(x) {
		return lo
	}
	return math.Mod(math.Abs(x), hi-lo) + lo
}

func TestAntipodalDistance(t *testing.T) {
	a := Point{0, 0}
	b := Point{0, 180}
	d := DistanceMiles(a, b)
	half := math.Pi * EarthRadiusMiles
	if math.Abs(d-half) > 1 {
		t.Fatalf("antipodal distance = %v, want %v", d, half)
	}
}

func TestPointValid(t *testing.T) {
	if !(Point{45, 90}).Valid() {
		t.Fatal("valid point rejected")
	}
	if (Point{91, 0}).Valid() || (Point{0, 181}).Valid() {
		t.Fatal("invalid point accepted")
	}
}

func TestPointString(t *testing.T) {
	got := Point{35.914, -81.539}.String()
	if got != "35.9140,-81.5390" {
		t.Fatalf("String = %q", got)
	}
}

func TestDelayModelFloor(t *testing.T) {
	m := DefaultDelayModel()
	if d := m.OneWay(0); d != m.Floor {
		t.Fatalf("zero-mile delay = %v, want floor %v", d, m.Floor)
	}
	if d := m.OneWay(-5); d != m.Floor {
		t.Fatalf("negative miles should clamp to floor, got %v", d)
	}
}

func TestDelayModelScalesLinearly(t *testing.T) {
	m := DefaultDelayModel()
	d1 := m.OneWay(1000)
	d2 := m.OneWay(2000)
	ratio := float64(d2) / float64(d1)
	if math.Abs(ratio-2) > 0.01 {
		t.Fatalf("delay not linear: %v vs %v", d1, d2)
	}
	// 1000 miles at ~8.05us/mile * 1.6 ≈ 12.9 ms one-way.
	if d1 < 12*time.Millisecond || d1 > 14*time.Millisecond {
		t.Fatalf("1000-mile one-way = %v, want ~13ms", d1)
	}
}

func TestRTTIsTwiceOneWay(t *testing.T) {
	m := DefaultDelayModel()
	if m.RTT(500) != 2*m.OneWay(500) {
		t.Fatal("RTT != 2*OneWay")
	}
}

func TestOneWayBetween(t *testing.T) {
	m := DefaultDelayModel()
	a, b := Point{40, -74}, Point{34, -118}
	if m.OneWayBetween(a, b) != m.OneWay(DistanceMiles(a, b)) {
		t.Fatal("OneWayBetween mismatch")
	}
}

func TestSiteTablesValid(t *testing.T) {
	for _, tbl := range [][]Site{BingBEs(), GoogleBEs(), USMetros(), WorldMetros()} {
		if len(tbl) == 0 {
			t.Fatal("empty site table")
		}
		seen := map[string]bool{}
		for _, s := range tbl {
			if !s.Point.Valid() {
				t.Fatalf("invalid point for %s: %v", s.Name, s.Point)
			}
			if s.Name == "" {
				t.Fatal("unnamed site")
			}
			if seen[s.Name] {
				t.Fatalf("duplicate site name %s", s.Name)
			}
			seen[s.Name] = true
		}
	}
}

func TestSiteTablesAreCopies(t *testing.T) {
	a := USMetros()
	a[0].Name = "mutated"
	b := USMetros()
	if b[0].Name == "mutated" {
		t.Fatal("USMetros returns shared backing array")
	}
}

func TestWorldIncludesUS(t *testing.T) {
	w := WorldMetros()
	us := USMetros()
	if len(w) <= len(us) {
		t.Fatalf("world pool (%d) should exceed US pool (%d)", len(w), len(us))
	}
}
