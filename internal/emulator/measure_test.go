package emulator_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"fesplit/internal/analysis"
	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/obs"
	"fesplit/internal/vantage"
)

// measureShapes are the Runner's campaign shapes, small: each returns
// its datasets in a fixed order.
var measureShapes = []struct {
	name string
	run  func(*emulator.Runner) []*emulator.Dataset
}{
	{"A", func(r *emulator.Runner) []*emulator.Dataset {
		return []*emulator.Dataset{r.RunExperimentA(emulator.AOptions{QueriesPerNode: 4, Interval: time.Second, QuerySeed: 3})}
	}},
	{"B", func(r *emulator.Runner) []*emulator.Dataset {
		ds, _ := r.RunExperimentB(emulator.BOptions{FE: r.Dep.FEs[0], Repeats: 4, Interval: time.Second})
		return []*emulator.Dataset{ds}
	}},
	{"keyword sweep", func(r *emulator.Runner) []*emulator.Dataset {
		sweeps := r.KeywordSweep(r.Dep.FEs[0], r.Fleet.Nodes[0], 6, 400*time.Millisecond, 5)
		var out []*emulator.Dataset
		for _, ds := range sweeps {
			out = append(out, ds)
		}
		// Map order is not fixed; the query keywords are.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].Records[0].Query.Keywords < out[j-1].Records[0].Query.Keywords; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}},
	{"caching probe", func(r *emulator.Runner) []*emulator.Dataset {
		same, distinct := r.CachingProbe(r.Dep.FEs[0], 3, time.Second, 5)
		return []*emulator.Dataset{same, distinct}
	}},
	{"open loop", func(r *emulator.Runner) []*emulator.Dataset {
		return []*emulator.Dataset{r.RunOpenLoop(emulator.OpenLoopOptions{QueriesPerNode: 6,
			Horizon: 4 * time.Second, BaseInterval: time.Second,
			SurgeStart: time.Second, SurgeEnd: 2 * time.Second, SurgeFactor: 4})}
	}},
}

// probeBoundary derives the Google-like service's content boundary the
// way a study does: a small full-payload keyword sweep.
func probeBoundary(t *testing.T, seed int64) int {
	t.Helper()
	r, err := emulator.New(seed+1, cdn.GoogleLike(seed), emulator.Options{Nodes: 6, FleetSeed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	fe := r.Dep.DefaultFE(r.Fleet.Nodes[0].Point)
	merged := &emulator.Dataset{}
	for _, ds := range r.KeywordSweep(fe, r.NearestNode(fe), 2, 2*time.Second, seed+3) {
		merged.Records = append(merged.Records, ds.Records...)
	}
	b := analysis.BoundaryFromDataset(merged)
	if b <= 0 {
		t.Fatal("no content boundary derivable")
	}
	return b
}

// foldOut is everything a Fold yields over a run of records: each
// record's parameters, timeline and skip reason, then the registry it
// fed, its tail exemplars and its counters.
type foldOut struct {
	records  []string
	metrics  string
	spans    string
	counters [2]int
}

func newFold(boundary int) (*analysis.Fold, *obs.Observer) {
	o := obs.NewTailObserver(obs.TailConfig{})
	return analysis.NewFold(o.Reg, "svc", "svc", boundary, o.Tail, 10*time.Millisecond), o
}

// fold reads every record once with ExtractRecord and folds it, into
// out, through f and o.
func fold(t *testing.T, f *analysis.Fold, o *obs.Observer, dss []*emulator.Dataset, out *foldOut) {
	t.Helper()
	for _, ds := range dss {
		for i := range ds.Records {
			rec := &ds.Records[i]
			p, tl, err := f.ExtractRecord(rec)
			line := fmt.Sprintf("%+v %v", p, err)
			if tl != nil {
				line += fmt.Sprintf(" %+v", *tl)
			}
			out.records = append(out.records, line)
			f.Consume(rec)
		}
	}
	var m, s bytes.Buffer
	if err := obs.WriteMetricsJSONL(&m, o.Reg); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	for _, e := range o.Tail.Select() {
		tr.Add(e.Span)
	}
	if err := obs.WriteSpansJSONL(&s, tr); err != nil {
		t.Fatal(err)
	}
	out.metrics, out.spans, out.counters = m.String(), s.String(), [2]int{f.Attributed, f.Violations}
}

func sameFold(t *testing.T, what string, atEnd, atClose *foldOut) {
	t.Helper()
	if len(atEnd.records) == 0 || len(atEnd.records) != len(atClose.records) {
		t.Fatalf("%s: %d records parsed at run end, %d measured at close", what, len(atEnd.records), len(atClose.records))
	}
	for i := range atEnd.records {
		if atEnd.records[i] != atClose.records[i] {
			t.Fatalf("%s: record %d\nparsed at run end  %s\nmeasured at close  %s", what, i, atEnd.records[i], atClose.records[i])
		}
	}
	if atEnd.metrics != atClose.metrics || atEnd.spans != atClose.spans || atEnd.counters != atClose.counters {
		t.Fatalf("%s: the folds differ: registry equal %v, exemplars equal %v, attributed/violations %v vs %v",
			what, atEnd.metrics == atClose.metrics, atEnd.spans == atClose.spans, atEnd.counters, atClose.counters)
	}
}

// TestMeasureAtCloseMatchesRunEnd: for every Runner campaign shape — A,
// sharded A, B, the keyword sweep, the caching probe, open loop — a
// world whose records are measured as their connections close yields
// the same world (events, sim time), the same parameters, timelines and
// skip reasons, and the same Fold outputs (registry, exemplars,
// counters) as the same world parsing every record at run end. At seeds
// 42 and 7, on the campus profile and behind the lossy access link,
// where some lists never become final and take the run-end path.
// Mutations: call a list final before the ACK of the local FIN, measure
// at the first FIN pair, or drop the run-end pass.
func TestMeasureAtCloseMatchesRunEnd(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		boundary := probeBoundary(t, seed)
		for _, prof := range []struct {
			name   string
			access vantage.AccessProfile
		}{{"campus", vantage.AccessProfile{}}, {"lossy", lossyAccess}} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, prof.name), func(t *testing.T) {
				atEndTotal := 0
				for _, shape := range measureShapes {
					world := func(m emulator.Measurer) (*emulator.Runner, []*emulator.Dataset) {
						r, err := emulator.New(seed+4, cdn.GoogleLike(seed), emulator.Options{
							Nodes: 8, FleetSeed: seed + 5, Access: prof.access, SnapPayloads: true, Measure: m})
						if err != nil {
							t.Fatal(err)
						}
						return r, shape.run(r)
					}
					plainR, plain := world(nil)
					endFold, endObs := newFold(boundary)
					closeFold, closeObs := newFold(boundary)
					measR, measured := world(closeFold)
					if plainR.Sim.Processed != measR.Sim.Processed || plainR.Sim.Now() != measR.Sim.Now() {
						t.Fatalf("%s: measuring moved the world: %d events to %v, measured %d to %v",
							shape.name, plainR.Sim.Processed, plainR.Sim.Now(), measR.Sim.Processed, measR.Sim.Now())
					}
					for _, ds := range measured {
						for i, rec := range ds.Records {
							if !rec.Measured || rec.Events != nil || rec.Payloads != nil {
								t.Fatalf("%s record %d: measured %v with %d events", shape.name, i, rec.Measured, len(rec.Events))
							}
						}
					}
					var atEnd, atClose foldOut
					fold(t, endFold, endObs, plain, &atEnd)
					fold(t, closeFold, closeObs, measured, &atClose)
					sameFold(t, shape.name, &atEnd, &atClose)
					atEndTotal += measR.EndMeasured()
				}
				atEnd, atClose := shardedA(t, seed, boundary, prof.access, false), shardedA(t, seed, boundary, prof.access, true)
				sameFold(t, "sharded A", atEnd, atClose)
				if prof.access.Loss > 0 && atEndTotal == 0 {
					t.Fatal("every list became final: the run-end path went unexercised")
				}
				t.Logf("%d records took the run-end path", atEndTotal)
			})
		}
	}
}

// foldSink folds a batch's records, keeping each record's line.
type foldSink struct {
	fold  *analysis.Fold
	o     *obs.Observer
	out   foldOut
	t     *testing.T
	whole bool // records must arrive measured
}

func (k *foldSink) Consume(rec *emulator.Record) {
	if k.whole && (!rec.Measured || rec.Events != nil) {
		k.t.Errorf("a measuring batch's record arrived measured %v with %d events", rec.Measured, len(rec.Events))
	}
	p, tl, err := k.fold.ExtractRecord(rec)
	line := fmt.Sprintf("%+v %v", p, err)
	if tl != nil {
		line += fmt.Sprintf(" %+v", *tl)
	}
	k.out.records = append(k.out.records, line)
	k.fold.Consume(rec)
}

// measuringSink is a foldSink that is also its batch's Measurer.
type measuringSink struct{ *foldSink }

func (k measuringSink) Measure(rec *emulator.Record, events []capture.Event) {
	k.fold.Measure(rec, events)
}

// shardedA runs a two-batch sharded Experiment A, its batch sinks
// measuring at close or not, and merges what their folds yielded in
// batch order.
func shardedA(t *testing.T, seed int64, boundary int, access vantage.AccessProfile, atClose bool) *foldOut {
	t.Helper()
	_, sinks, err := emulator.RunShardedA(emulator.ShardedAOptions{
		SimSeed: seed + 6, Deployment: cdn.GoogleLike(seed),
		Runner:  emulator.Options{Nodes: 12, FleetSeed: seed + 7, Access: access, SnapPayloads: true},
		A:       emulator.AOptions{QueriesPerNode: 3, Interval: time.Second, QuerySeed: 3},
		Batches: 2, Workers: 2,
		Sink: func(int, *obs.Observer) emulator.RecordSink {
			f, o := newFold(boundary)
			k := &foldSink{fold: f, o: o, t: t, whole: atClose}
			if atClose {
				return measuringSink{k}
			}
			return k
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := &foldOut{}
	for _, s := range sinks {
		k, ok := s.(*foldSink)
		if !ok {
			k = s.(measuringSink).foldSink
		}
		var batch foldOut
		fold(t, k.fold, k.o, nil, &batch)
		out.records = append(out.records, k.out.records...)
		out.metrics += batch.metrics
		out.spans += batch.spans
		out.counters[0] += batch.counters[0]
		out.counters[1] += batch.counters[1]
	}
	return out
}

// TestMeasuredRunnerHoldsNoEvents pins what measuring at close saves: a
// measured campaign's final records carry no events, and what the
// capture layer allocates per query stays under the budget. Each list
// now goes back to its recorder when final, so a node keeps about one
// list slot and buffer per connection open at a time and no record keeps
// a copy: on this lossy campaign the capture layer allocated 4 471 B per
// query when every record kept its sealed session, and 911 measured at
// close.
// Mutations: seal or copy a list before handing it over, or drop the
// buffer of a list OnFinal took.
func TestMeasuredRunnerHoldsNoEvents(t *testing.T) {
	const budget = 1_100 // capture-layer bytes per query
	boundary := probeBoundary(t, 42)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // every allocation, from the next one on
	before := captureBytes()
	r, err := emulator.New(46, cdn.GoogleLike(42), emulator.Options{
		Nodes: 20, FleetSeed: 47, Access: lossyAccess, SnapPayloads: true, Measure: analysis.NewMeasurer(boundary)})
	if err != nil {
		t.Fatal(err)
	}
	ds := r.RunExperimentA(emulator.AOptions{QueriesPerNode: 24, Interval: time.Second, QuerySeed: 3})
	perQuery := float64(captureBytes()-before) / float64(len(ds.Records))
	for i, rec := range ds.Records {
		if !rec.Measured || rec.Events != nil || rec.Payloads != nil {
			t.Fatalf("record %d: measured %v, %d events, %d payloads", i, rec.Measured, len(rec.Events), len(rec.Payloads))
		}
	}
	t.Logf("%d queries, %.0f capture B per query", len(ds.Records), perQuery)
	if perQuery > budget {
		t.Fatalf("the capture layer allocates %.0f B per query, budget %d", perQuery, budget)
	}
}

// captureBytes is what allocation sites in internal/capture — the
// innermost program frame of the allocating stack — have allocated so
// far by the memory profile: every byte while MemProfileRate is 1. The
// runtime publishes the profile at garbage collection.
func captureBytes() int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	var sum int64
	for _, rec := range recs {
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "fesplit/internal/") {
				if strings.HasPrefix(f.Function, "fesplit/internal/capture.") {
					sum += rec.AllocBytes
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return sum
}
