package analysis

import (
	"testing"
	"time"

	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/obs"
	"fesplit/internal/obs/critpath"
	"fesplit/internal/vantage"
)

// TestCritPathConservation runs the fold's query, span and
// critical-path steps on emulator output for both calibrated services
// and asserts, per record: phases partition the query's root span
// exactly (the conservation invariant), the
// derived fetch estimate respects [Tdelta, Tdynamic], and — validated
// against Record.TrueFetch ground truth — estimate and truth live in
// the same jitter-widened inference window, so the estimate can never
// be further from the truth than the window is wide.
func TestCritPathConservation(t *testing.T) {
	tol := 2 * vantage.CampusProfile().Jitter
	for _, tc := range []struct {
		name string
		cfg  cdn.Config
	}{
		{"google-like", cdn.GoogleLike(7)},
		{"bing-like", cdn.BingLike(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.NewTailObserver(obs.TailConfig{})
			r, err := emulator.New(7, tc.cfg, emulator.Options{
				Nodes: 10, FleetSeed: 8, Obs: o,
			})
			if err != nil {
				t.Fatal(err)
			}
			ds := r.RunExperimentA(emulator.AOptions{
				QueriesPerNode: 4,
				Interval:       2 * time.Second,
				QuerySeed:      9,
			})
			boundary := BoundaryFromDataset(ds)
			if boundary <= 0 {
				t.Fatal("no content boundary derivable")
			}
			attributed := 0
			for i := range ds.Records {
				rr := &ds.Records[i]
				_, sess, err := NewMeasurer(boundary).ExtractRecord(rr)
				if err != nil {
					continue
				}
				a := critpath.Attribute(query(rr), *sess)
				root := span(rr, sess)
				critpath.Annotate(root, a)
				attributed++
				if !a.Conserved() {
					t.Fatalf("record %d: phase sum %v != total %v", i, a.Sum(), a.Total)
				}
				if want := root.End - root.Start; a.Total != want {
					t.Fatalf("record %d: total %v != span duration %v", i, a.Total, want)
				}
				if a.FetchEstimate < a.Tdelta || a.FetchEstimate > a.Tdynamic {
					t.Fatalf("record %d: estimate %v outside [%v, %v]",
						i, a.FetchEstimate, a.Tdelta, a.Tdynamic)
				}
				if tf := rr.TrueFetch; tf > 0 {
					if tf >= a.Tdelta-tol && tf <= a.Tdynamic+tol {
						window := a.Tdynamic - a.Tdelta + tol
						if diff := absDur(a.FetchEstimate - tf); diff > window {
							t.Fatalf("record %d: |estimate−truth| %v exceeds window %v",
								i, diff, window)
						}
					}
				}
				// The split of the fetch window is bounded by the
				// record's FE↔BE RTT and by the window itself.
				if a.Phases[critpath.PhaseBERTT] > a.BERTT {
					t.Fatalf("record %d: be-rtt %v > link RTT %v",
						i, a.Phases[critpath.PhaseBERTT], a.BERTT)
				}
				// Annotation landed on the span: cp children cover the
				// root exactly.
				var cp time.Duration
				for _, c := range root.Children {
					if c.Track == critpath.AnnotationTrack {
						cp += c.Dur()
					}
				}
				if cp != a.Total {
					t.Fatalf("record %d: cp spans cover %v, want %v", i, cp, a.Total)
				}
			}
			if attributed == 0 {
				t.Fatal("no records attributed")
			}

			// The fold itself runs the same steps into the registry's
			// sketches: counts line up and the self-check counter stays
			// zero.
			reg := obs.NewRegistry()
			fold := NewFold(reg, tc.name, tc.name, boundary, nil, tol)
			for i := range ds.Records {
				fold.Consume(&ds.Records[i])
			}
			n := attributed
			assertCounter(t, reg, "critpath_records_total", float64(n))
			assertCounter(t, reg, "critpath_conservation_breaks_total", 0)
			for _, f := range reg.Families() {
				if f.Name != "critpath_phase_seconds" {
					continue
				}
				for _, s := range f.Series() {
					if got := s.Sketch.Count(); got != uint64(n) {
						t.Fatalf("phase %v sketch count %d, want %d", s.LabelValues, got, n)
					}
				}
			}
		})
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func assertCounter(t *testing.T, reg *obs.Registry, name string, want float64) {
	t.Helper()
	for _, f := range reg.Families() {
		if f.Name != name {
			continue
		}
		var total float64
		for _, s := range f.Series() {
			total += s.Counter.Value()
		}
		if total != want {
			t.Fatalf("%s = %g, want %g", name, total, want)
		}
		return
	}
	if want != 0 {
		t.Fatalf("counter %s not registered", name)
	}
}
