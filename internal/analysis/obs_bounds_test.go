package analysis

import (
	"testing"
	"time"

	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/obs"
	"fesplit/internal/stats"
	"fesplit/internal/trace"
	"fesplit/internal/vantage"
)

// TestPerRecordFetchBounds validates the inference framework's central
// inequality per query, not just in the median: the span-derived
// ground-truth FE-BE fetch time must satisfy
// Tdelta ≤ Tfetch ≤ Tdynamic (paper equation 1) on both calibrated
// services. Sessions with retransmissions are excluded, as the paper
// excludes loss-affected sessions from its bound analysis. The bounds
// come from two client-observed packets (the ACK of the GET for T2, the
// first dynamic packet for T5), each shifted by up to ±Jitter on the
// access link, so they are asserted within a 2×jitter tolerance.
func TestPerRecordFetchBounds(t *testing.T) {
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
				Nodes:     10,
				FleetSeed: 8,
				Obs:       o,
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
			steps := NewFold(nil, tc.name, tc.name, boundary, nil, tol)
			checked := 0
			var lo, truth, hi []float64
			for i := range ds.Records {
				rec := &ds.Records[i]
				if rec.Failed || rec.TrueFetch <= 0 {
					continue
				}
				s, err := trace.Parse(rec.Key, rec.Events)
				if err != nil || s.Locate(boundary) != nil {
					continue
				}
				steps.arena.Reset()
				fetch := steps.span(rec, s).Find("fe-fetch")
				if fetch == nil {
					t.Fatalf("record %d: span tree missing fe-fetch", i)
				}
				if got := fetch.Dur(); got != rec.TrueFetch {
					t.Fatalf("record %d: span fetch %v != TrueFetch %v", i, got, rec.TrueFetch)
				}
				if s.Retransmissions > 0 {
					continue
				}
				if s.Tdelta() > rec.TrueFetch+tol {
					t.Errorf("record %d: Tdelta %v > true fetch %v", i, s.Tdelta(), rec.TrueFetch)
				}
				if rec.TrueFetch > s.Tdynamic()+tol {
					t.Errorf("record %d: true fetch %v > Tdynamic %v", i, rec.TrueFetch, s.Tdynamic())
				}
				lo = append(lo, float64(s.Tdelta()))
				truth = append(truth, float64(rec.TrueFetch))
				hi = append(hi, float64(s.Tdynamic()))
				checked++
			}
			if checked < 20 {
				t.Fatalf("bounds checked on only %d records", checked)
			}
			// The medians must satisfy the inequality strictly — the
			// per-record jitter noise averages out (Section 4's claim).
			mLo, mTruth, mHi := stats.Median(lo), stats.Median(truth), stats.Median(hi)
			if mLo > mTruth || mTruth > mHi {
				t.Errorf("median bounds violated: %v ≤ %v ≤ %v",
					time.Duration(mLo), time.Duration(mTruth), time.Duration(mHi))
			}
		})
	}
}
