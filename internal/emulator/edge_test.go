package emulator

import (
	"strings"
	"testing"
	"time"

	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/frontend"
	"fesplit/internal/httpsim"
	"fesplit/internal/obs"
	"fesplit/internal/shard"
)

// TestMatchFetchEdgeCases drives the hand-over and the join of one live
// query on node-0's port 4000, issued at issued: the FE records handed
// over while it is live, those handed over after it completed, and
// what the record joins (wantArrived; zero = nothing).
func TestMatchFetchEdgeCases(t *testing.T) {
	fr := func(arrived time.Duration) frontend.FetchRecord {
		return frontend.FetchRecord{Client: "node-0", ClientPort: 4000, Arrived: arrived,
			FetchDone: arrived + 100*time.Millisecond}
	}
	tests := []struct {
		name          string
		live, after   []frontend.FetchRecord
		issued        time.Duration
		neverComplete bool
		wantArrived   time.Duration
	}{
		{
			name:   "empty candidate list",
			issued: 0,
		},
		{
			name:   "single candidate inside window",
			live:   []frontend.FetchRecord{fr(500 * time.Millisecond)},
			issued: 0, wantArrived: 500 * time.Millisecond,
		},
		{
			name:   "unmatched: arrival before window",
			live:   []frontend.FetchRecord{fr(100 * time.Millisecond)},
			issued: 200 * time.Millisecond,
		},
		{
			name:   "unmatched: arrival after window",
			after:  []frontend.FetchRecord{fr(2 * time.Second)},
			issued: 0,
		},
		{
			name:   "window boundaries are inclusive",
			live:   []frontend.FetchRecord{fr(time.Second)},
			issued: time.Second, wantArrived: time.Second,
		},
		{
			name: "port recycling: picks the record in this query's window",
			live: []frontend.FetchRecord{
				fr(100 * time.Millisecond), // earlier session on the same port
				fr(700 * time.Millisecond),
			},
			after:  []frontend.FetchRecord{fr(5 * time.Second)}, // later session
			issued: 600 * time.Millisecond, wantArrived: 700 * time.Millisecond,
		},
		{
			name: "other sessions in the window are skipped",
			live: []frontend.FetchRecord{
				{Client: "node-0", ClientPort: 4001, Arrived: 300 * time.Millisecond},
				fr(400 * time.Millisecond),
				{Client: "node-1", ClientPort: 4000, Arrived: 500 * time.Millisecond},
			},
			issued: 0, wantArrived: 400 * time.Millisecond,
		},
		{
			name:          "a query that never completes joins nothing",
			live:          []frontend.FetchRecord{fr(500 * time.Millisecond)},
			issued:        0,
			neverComplete: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := handOverWorld()
			rr := liveRecord(w, "node-0", 4000, tt.issued)
			for _, f := range tt.live {
				w.handOver(f)
			}
			if !tt.neverComplete {
				w.complete(rr, &httpsim.Response{Status: 200})
			}
			for _, f := range tt.after {
				w.handOver(f)
			}
			if tt.wantArrived == 0 {
				if rr.Fetch != (frontend.FetchRecord{}) || rr.TrueFetch != 0 {
					t.Fatalf("joined %+v (TrueFetch %v), want nothing", rr.Fetch, rr.TrueFetch)
				}
				return
			}
			if rr.Fetch.Arrived != tt.wantArrived || rr.TrueFetch != 100*time.Millisecond {
				t.Fatalf("joined arrival %v (TrueFetch %v), want %v", rr.Fetch.Arrived, rr.TrueFetch, tt.wantArrived)
			}
		})
	}
}

// edgeRunner builds a tiny world for finalize edge cases.
func edgeRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := New(1, cdn.GoogleLike(1), Options{Nodes: 3, FleetSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFinalizeEmptyDataset(t *testing.T) {
	r := edgeRunner(t)
	ds := &Dataset{}
	r.finalize(ds)
	if len(ds.Records) != 0 {
		t.Fatalf("empty campaign produced %d records", len(ds.Records))
	}
}

func TestFinalizeRecordWithoutTrace(t *testing.T) {
	// A record naming a node outside the fleet (no trace captured) must
	// come back with no events, not panic the session split.
	r := edgeRunner(t)
	ds := &Dataset{Records: []Record{{
		Node: "ghost-node",
		Key:  capture.ConnKey{Remote: "fe", LocalPort: 9999, RemotePort: frontend.FEPort},
	}}}
	r.finalize(ds)
	if got := ds.Records[0].Events; got != nil {
		t.Fatalf("ghost node got %d events, want none", len(got))
	}
}

func TestFinalizeRecordWithUnknownKey(t *testing.T) {
	// A record whose connection key matches no captured session gets an
	// empty event list while real sessions still attach.
	r := edgeRunner(t)
	ds := r.runExperimentARange(AOptions{QueriesPerNode: 1, Interval: time.Second, QuerySeed: 3}, 0, 1)
	if len(ds.Records) != 1 || ds.Records[0].Failed {
		t.Fatalf("probe campaign did not complete: %+v", ds.Records)
	}
	if len(ds.Records[0].Events) == 0 {
		t.Fatal("real session attached no events")
	}
	node := ds.Records[0].Node
	ds.Records = append(ds.Records, Record{
		Node: node,
		Key:  capture.ConnKey{Remote: "nowhere", LocalPort: 1, RemotePort: 1},
	})
	// Re-attach events through a fresh finalize pass on the same runner:
	// the unknown key must resolve to nothing.
	r.finalize(ds)
	if got := ds.Records[1].Events; len(got) != 0 {
		t.Fatalf("unknown key attached %d events", len(got))
	}
}

// collectSink keeps a scalar copy of every record it is fed — records
// (events, span, body) must not be retained past Consume.
type collectSink struct {
	recs []Record
}

func (c *collectSink) Consume(rec *Record) {
	c.recs = append(c.recs, Record{
		Node: rec.Node, FE: rec.FE, IssuedAt: rec.IssuedAt, DoneAt: rec.DoneAt,
		Status: rec.Status, BodyLen: rec.BodyLen, Failed: rec.Failed,
	})
}

// runShardedCollect runs a sharded campaign into per-batch collecting
// sinks and returns the records concatenated in batch order.
func runShardedCollect(t *testing.T, opts ShardedAOptions) []Record {
	t.Helper()
	opts.Sink = func(int, *obs.Observer) RecordSink { return &collectSink{} }
	_, sinks, err := RunShardedA(opts)
	if err != nil {
		t.Fatal(err)
	}
	var out []Record
	for _, k := range sinks {
		out = append(out, k.(*collectSink).recs...)
	}
	return out
}

func TestRunShardedAMatchesUnsharded(t *testing.T) {
	// One batch (k=1) through the sharded path must equal the plain
	// RunExperimentA campaign: same seeds, same world, same records.
	dep := cdn.GoogleLike(1)
	aopts := AOptions{QueriesPerNode: 2, Interval: time.Second, QuerySeed: 7}
	ropts := Options{Nodes: 5, FleetSeed: 6}

	// The sharded path derives batch 0's sim seed via shard.Mix, so seed
	// the plain runner the same way for the comparison.
	plain, err := New(shard.Mix(5, 0), dep, ropts)
	if err != nil {
		t.Fatal(err)
	}
	want := plain.RunExperimentA(aopts).Records

	got := runShardedCollect(t, ShardedAOptions{
		SimSeed: 5, Deployment: dep, Runner: ropts, A: aopts, Batches: 1, Workers: 2,
	})
	if len(got) != len(want) {
		t.Fatalf("sharded %d records, plain %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Node != w.Node || g.DoneAt != w.DoneAt || g.BodyLen != w.BodyLen {
			t.Fatalf("record %d: sharded %+v, plain %+v", i, g, w)
		}
	}
}

func TestRunShardedADeterministicAcrossWorkers(t *testing.T) {
	dep := cdn.GoogleLike(1)
	run := func(workers int) []Record {
		return runShardedCollect(t, ShardedAOptions{
			SimSeed: 9, Deployment: dep,
			Runner:  Options{Nodes: 6, FleetSeed: 10},
			A:       AOptions{QueriesPerNode: 2, Interval: time.Second, QuerySeed: 11},
			Batches: 3, Workers: workers,
		})
	}
	a, b := run(1), run(4)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("workers=1 %d records, workers=4 %d", len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i], b[i]
		if ra.Node != rb.Node || ra.DoneAt != rb.DoneAt || ra.BodyLen != rb.BodyLen {
			t.Fatalf("record %d differs across worker counts: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestRunShardedARequiresSink(t *testing.T) {
	_, _, err := RunShardedA(ShardedAOptions{
		SimSeed: 1, Deployment: cdn.GoogleLike(1),
		Runner: Options{Nodes: 2, FleetSeed: 2},
		A:      AOptions{QueriesPerNode: 1, Interval: time.Second},
	})
	if err == nil {
		t.Fatal("RunShardedA accepted a nil sink factory")
	}
}

// TestShardedRefusesPerBatchFields: a sharded campaign sets each batch's
// observer, measurer and sink itself, so options that set one of those
// inner fields are refused with an error naming the field.
func TestShardedRefusesPerBatchFields(t *testing.T) {
	sink := func(int, *obs.Observer) RecordSink { return &collectSink{} }
	a := ShardedAOptions{SimSeed: 1, Deployment: cdn.GoogleLike(1), Runner: Options{Nodes: 2, FleetSeed: 2},
		A: AOptions{QueriesPerNode: 1, Interval: time.Second}, Sink: sink}
	f := FleetShardedOptions{SimSeed: 1, Deployment: cdn.GoogleLike(1),
		Fleet: FleetOptions{Clients: 2, FleetSeed: 2}, Sink: sink}
	for _, tc := range []struct {
		field string
		run   func() error
	}{
		{"ShardedAOptions.Runner.Obs", func() error {
			o := a
			o.Runner.Obs = &obs.Observer{}
			_, _, err := RunShardedA(o)
			return err
		}},
		{"ShardedAOptions.Runner.Measure", func() error {
			o := a
			o.Runner.Measure = &countMeasurer{}
			_, _, err := RunShardedA(o)
			return err
		}},
		{"FleetShardedOptions.Fleet.Obs", func() error {
			o := f
			o.Fleet.Obs = &obs.Observer{}
			_, _, _, err := RunFleet(o)
			return err
		}},
		{"FleetShardedOptions.Fleet.Sink", func() error {
			o := f
			o.Fleet.Sink = &collectSink{}
			_, _, _, err := RunFleet(o)
			return err
		}},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s set: error %v, want one naming the field", tc.field, err)
		}
	}
}
