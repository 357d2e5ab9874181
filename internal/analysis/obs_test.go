package analysis

import (
	"sort"
	"testing"
	"time"

	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/obs"
	"fesplit/internal/vantage"
)

// boundTol mirrors the bounds-validation tolerance: each client-side
// bound carries up to one access-link jitter draw.
var boundTol = 2 * vantage.CampusProfile().Jitter

// observedParams runs a small observed Experiment A on the given
// deployment and returns the observer plus measured params.
func observedParams(t *testing.T, o *obs.Observer, cfg cdn.Config) (*emulator.Dataset, []Params) {
	t.Helper()
	r, err := emulator.New(7, cfg, emulator.Options{Nodes: 10, FleetSeed: 8, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	ds := r.RunExperimentA(emulator.AOptions{
		QueriesPerNode: 4,
		Interval:       2 * time.Second,
		QuerySeed:      9,
	})
	params := ExtractDataset(ds, BoundaryFromDataset(ds))
	if len(params) < 20 {
		t.Fatalf("only %d params extracted", len(params))
	}
	return ds, params
}

// TestSketchQuantilesMatchExact is the acceptance check for the sketch
// path: p50/p95/p99 of Tdynamic read from the registry sketch must
// agree with the exact per-record computation within the sketch's
// relative-error bound, on both calibrated services. Exact order
// statistics bracket each sketch readout so interpolation-convention
// differences cannot fail the test spuriously.
func TestSketchQuantilesMatchExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  cdn.Config
	}{
		{"google-like", cdn.GoogleLike(7)},
		{"bing-like", cdn.BingLike(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.NewTailObserver(obs.TailConfig{})
			_, params := observedParams(t, o, tc.cfg)
			ObserveParams(o.Registry(), tc.cfg.Name, params)

			var sk *obs.Sketch
			for _, f := range o.Registry().Families() {
				if f.Name != "session_param_seconds" {
					continue
				}
				for _, s := range f.Series() {
					if s.LabelValues[0] == tc.cfg.Name && s.LabelValues[1] == "tdynamic" {
						sk = s.Sketch
					}
				}
			}
			if sk == nil {
				t.Fatal("no tdynamic sketch series registered")
			}
			exact := make([]float64, len(params))
			for i, p := range params {
				exact[i] = p.Tdynamic.Seconds()
			}
			sort.Float64s(exact)
			if sk.Count() != uint64(len(exact)) {
				t.Fatalf("sketch count %d != %d params", sk.Count(), len(exact))
			}
			const alpha = obs.DefaultSketchAlpha
			for _, q := range []float64{0.5, 0.95, 0.99} {
				got := sk.Quantile(q)
				// The sketch resolves rank floor(q·(n-1)); bracket with the
				// neighboring order statistics, each widened by the
				// relative-error guarantee.
				rank := q * float64(len(exact)-1)
				lo := exact[int(rank)] * (1 - 2*alpha)
				hiIdx := int(rank) + 1
				if hiIdx >= len(exact) {
					hiIdx = len(exact) - 1
				}
				hi := exact[hiIdx] * (1 + 2*alpha)
				if got < lo || got > hi {
					t.Errorf("q=%v: sketch %v outside exact bracket [%v, %v]", q, got, lo, hi)
				}
			}
		})
	}
}

// foldAll folds every record of ds, a campaign against service,
// through a fresh fold feeding ts.
func foldAll(ts *obs.TailSampler, service string, ds *emulator.Dataset) *Fold {
	fold := NewFold(nil, service, service, BoundaryFromDataset(ds), ts, boundTol)
	for i := range ds.Records {
		fold.Consume(&ds.Records[i])
	}
	return fold
}

// TestFoldRetainsTailAndViolations checks the tail offer: offered
// counts match measurable records, every bound-violating record
// survives selection, and the retained tail sits at or above the
// sampler's threshold.
func TestFoldRetainsTailAndViolations(t *testing.T) {
	o := obs.NewTailObserver(obs.TailConfig{Percentile: 0.8, MaxExemplars: 8})
	cfg := cdn.GoogleLike(7)
	ds, params := observedParams(t, o, cfg)
	violations := foldAll(o.Tail, cfg.Name, ds).Violations
	if o.Tail.Offered() != len(params) {
		t.Fatalf("offered %d records, want all %d measurable", o.Tail.Offered(), len(params))
	}
	sel := o.TailSampler().Select()
	if len(sel) == 0 {
		t.Fatal("tail sampler retained nothing")
	}
	kept := 0
	for _, e := range sel {
		if e.Violation {
			kept++
		} else if e.Value < o.TailSampler().Threshold() {
			t.Errorf("non-violation exemplar %v below threshold %v", e.Value, o.TailSampler().Threshold())
		}
		if e.Span == nil || find(e.Span, fetchSpan) == nil {
			t.Error("retained exemplar lacks a full span tree with FE ground truth")
		}
	}
	if kept != violations {
		t.Errorf("selection kept %d violations, the fold counted %d", kept, violations)
	}
	if len(sel) > 8+violations {
		t.Errorf("selection %d exceeds cap %d + %d violations", len(sel), 8, violations)
	}
}

func TestViolatesBounds(t *testing.T) {
	p := Params{Tdelta: 100 * time.Millisecond, Tdynamic: 400 * time.Millisecond}
	for _, tc := range []struct {
		fetch time.Duration
		tol   time.Duration
		want  bool
	}{
		{0, 0, false},                      // no ground truth, no witness
		{100 * time.Millisecond, 0, false}, // on the lower bound
		{250 * time.Millisecond, 0, false}, // inside
		{400 * time.Millisecond, 0, false}, // on the upper bound
		{50 * time.Millisecond, 0, true},   // below Tdelta
		{500 * time.Millisecond, 0, true},  // above Tdynamic
		// Tolerance absorbs jitter-sized excursions but not real ones.
		{99 * time.Millisecond, 2 * time.Millisecond, false},
		{401 * time.Millisecond, 2 * time.Millisecond, false},
		{90 * time.Millisecond, 2 * time.Millisecond, true},
		{410 * time.Millisecond, 2 * time.Millisecond, true},
	} {
		if got := p.ViolatesBounds(tc.fetch, tc.tol); got != tc.want {
			t.Errorf("ViolatesBounds(fetch=%v, tol=%v) = %v, want %v", tc.fetch, tc.tol, got, tc.want)
		}
	}
}

// TestFoldRetainsSyntheticViolation plants a ground-truth fetch time
// that falsifies the inference bound and asserts the sampler keeps that
// record even though its Tdynamic is nowhere near the tail.
func TestFoldRetainsSyntheticViolation(t *testing.T) {
	o := obs.NewTailObserver(obs.TailConfig{Percentile: 0.99, MaxExemplars: 1})
	cfg := cdn.GoogleLike(7)
	ds, _ := observedParams(t, o, cfg)
	boundary := BoundaryFromDataset(ds)
	if boundary <= 0 {
		t.Fatal("no boundary")
	}
	// Corrupt the first measurable record's ground truth so it violates
	// Tfetch ≤ Tdynamic.
	var planted *emulator.Record
	for i := range ds.Records {
		if _, _, err := NewMeasurer(boundary).ExtractRecord(&ds.Records[i]); err == nil {
			planted = &ds.Records[i]
			planted.TrueFetch = time.Hour
			break
		}
	}
	if planted == nil {
		t.Fatal("no record to plant a violation on")
	}
	if foldAll(o.Tail, cfg.Name, ds).Violations < 1 {
		t.Fatal("planted violation not detected")
	}
	found := false
	for _, e := range o.TailSampler().Select() {
		if e.Violation && e.Span.Key == obs.ConnKey(planted.Key) && e.Span.Start == planted.IssuedAt {
			found = true
		}
	}
	if !found {
		t.Error("planted bound-violating record not retained by selection")
	}
}
