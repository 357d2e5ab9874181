package emulator

import (
	"testing"
	"time"

	"fesplit/internal/backend"
	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/frontend"
	"fesplit/internal/httpsim"
	"fesplit/internal/obs"
	"fesplit/internal/simnet"
)

// handOverWorld is the least world a hand-over needs: a clock and the
// live-query table.
func handOverWorld() *world {
	sim := simnet.New(1)
	return &world{Sim: sim, Net: simnet.NewNetwork(sim), live: make(map[nodePort]liveQuery)}
}

// liveRecord makes a query on node's port live in w, as get does.
func liveRecord(w *world, node simnet.HostID, port uint16, issued time.Duration) *Record {
	rr := &Record{Node: node, FE: "fe-0", IssuedAt: issued, Failed: true,
		Key: capture.ConnKey{Remote: "fe-0", LocalPort: port, RemotePort: frontend.FEPort}}
	w.live[nodePort{node, port}] = liveQuery{rr: rr}
	return rr
}

// TestFetchJoinSurvivesPortReuse pins the join against ephemeral port
// reuse: when two sessions from the same client host use the same
// source port in turn, a late hand-over from the earlier connection (its
// GET arrived before the later query was issued) must not stand in for
// the later query's own. Mutation: drop the Arrived ≥ IssuedAt guard in
// handOver.
func TestFetchJoinSurvivesPortReuse(t *testing.T) {
	const port = 4242
	w := handOverWorld()
	early := frontend.FetchRecord{Client: "node-1", ClientPort: port,
		Arrived: 1 * time.Second, StaticAt: 1100 * time.Millisecond, FetchDone: 1200 * time.Millisecond}
	late := frontend.FetchRecord{Client: "node-1", ClientPort: port,
		Arrived: 61 * time.Second, StaticAt: 61100 * time.Millisecond, FetchDone: 61400 * time.Millisecond}

	rr := liveRecord(w, "node-1", port, 60900*time.Millisecond)
	w.handOver(early)
	if got := w.live[nodePort{"node-1", port}].fetch; got != (frontend.FetchRecord{}) {
		t.Fatalf("the earlier connection's hand-over was staged on the later query: %+v", got)
	}
	w.handOver(late)
	w.complete(rr, &httpsim.Response{Status: 200})
	if rr.Fetch != late || rr.TrueFetch != 400*time.Millisecond {
		t.Fatalf("later query joined %+v (TrueFetch %v), want its own hand-over", rr.Fetch, rr.TrueFetch)
	}
	if len(w.live) != 0 {
		t.Fatalf("complete left %d live entries without a measurer", len(w.live))
	}
}

// TestMatchFetch: a query joins the FE record whose GET arrived while it
// was live, and nothing when no arrival falls in that window or no
// record was handed over.
func TestMatchFetch(t *testing.T) {
	fr := func(arrived time.Duration) frontend.FetchRecord {
		return frontend.FetchRecord{Client: "node-0", ClientPort: 4000, Arrived: arrived,
			FetchDone: arrived + 100*time.Millisecond}
	}
	// The window 19s..completion holds the 20s arrival, not the 10s one.
	w := handOverWorld()
	rr := liveRecord(w, "node-0", 4000, 19*time.Second)
	w.handOver(fr(10 * time.Second))
	w.handOver(fr(20 * time.Second))
	w.complete(rr, &httpsim.Response{Status: 200})
	if rr.Fetch.Arrived != 20*time.Second || rr.TrueFetch != 100*time.Millisecond {
		t.Fatalf("joined arrival %v (TrueFetch %v), want the 20s record", rr.Fetch.Arrived, rr.TrueFetch)
	}
	// The window 12s..completion holds neither arrival.
	w = handOverWorld()
	rr = liveRecord(w, "node-0", 4000, 12*time.Second)
	w.handOver(fr(10 * time.Second))
	w.complete(rr, &httpsim.Response{Status: 200})
	w.handOver(fr(20 * time.Second))
	if rr.Fetch != (frontend.FetchRecord{}) || rr.TrueFetch != 0 {
		t.Fatalf("a window containing no arrival joined %+v", rr.Fetch)
	}
	// Nothing handed over joins nothing.
	w = handOverWorld()
	rr = liveRecord(w, "node-0", 4000, 0)
	w.complete(rr, &httpsim.Response{Status: 200})
	if rr.Fetch != (frontend.FetchRecord{}) || rr.TrueFetch != 0 {
		t.Fatalf("an empty hand-over joined %+v", rr.Fetch)
	}
}

// TestGroundTruthWithoutObserver: what a world records does not depend
// on who watches it. An unobserved world and its twin carrying a tail
// observer join the same FE ground truth onto every record, and every
// completed non-503 record has a fetch time. Mutation: gate the
// hand-over on the observer.
func TestGroundTruthWithoutObserver(t *testing.T) {
	run := func(o *obs.Observer) *Dataset {
		r, err := New(21, cdn.GoogleLike(21), Options{Nodes: 30, FleetSeed: 22, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		return r.RunExperimentA(AOptions{QueriesPerNode: 5, Interval: 2 * time.Second, QuerySeed: 23})
	}
	bare, watched := run(nil), run(obs.NewTailObserver(obs.TailConfig{}))
	if len(bare.Records) != len(watched.Records) {
		t.Fatalf("records: %d unobserved, %d observed", len(bare.Records), len(watched.Records))
	}
	for i := range bare.Records {
		a, b := &bare.Records[i], &watched.Records[i]
		if a.TrueFetch != b.TrueFetch || a.Fetch != b.Fetch || a.BERTT != b.BERTT {
			t.Fatalf("record %d: unobserved {%v %+v %v}, observed {%v %+v %v}",
				i, a.TrueFetch, a.Fetch, a.BERTT, b.TrueFetch, b.Fetch, b.BERTT)
		}
		if !a.Failed && a.Status != 503 && a.TrueFetch <= 0 {
			t.Fatalf("completed record %d (status %d) has no ground-truth fetch time", i, a.Status)
		}
	}
}

// TestKeepAliveRecordsJoinNothing: a keep-alive query shares its
// connection with the node's other queries, so it is never live by
// connection and joins no FE truth, though the FE hands every request
// over.
func TestKeepAliveRecordsJoinNothing(t *testing.T) {
	r, err := New(41, cdn.GoogleLike(41), Options{Nodes: 4, FleetSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	handed := 0
	for _, fe := range r.Dep.FEs {
		next := fe.OnFetch
		fe.OnFetch = func(fr frontend.FetchRecord) { handed++; next(fr) }
	}
	ds := r.RunKeepAliveA(AOptions{QueriesPerNode: 3, Interval: time.Second, QuerySeed: 43})
	if handed == 0 {
		t.Fatal("no FE handed a request over")
	}
	for i, rr := range ds.Records {
		if rr.Failed {
			t.Fatalf("keep-alive record %d never completed", i)
		}
		if rr.Fetch != (frontend.FetchRecord{}) || rr.TrueFetch != 0 {
			t.Fatalf("keep-alive record %d joined %+v (TrueFetch %v)", i, rr.Fetch, rr.TrueFetch)
		}
	}
}

// TestOverloadHandsEveryRequestOverOnce overloads a one-replica BE with
// a one-deep queue behind FEs that retry once, so fetches are retried
// and some degrade to static-only: every request an FE handled (its
// admission 503s excepted) is still handed over exactly once.
func TestOverloadHandsEveryRequestOverOnce(t *testing.T) {
	cfg := cdn.SingleBE(cdn.BingLike(1), "bing-be-virginia")
	cfg.BEOptions.Queue = backend.QueueOptions{Replicas: 1, QueueCap: 1}
	cfg.FEPool = frontend.PoolConfig{Retries: 1, Backoff: 5 * time.Millisecond}
	opts := fleetTestOpts(&fleetSink{}, nil)
	opts.Curve = DefaultDiurnalCurve(30*time.Second, 40)
	r, err := NewFleetRunner(11, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	type request struct {
		client string
		port   uint16
		at     time.Duration
	}
	seen := make(map[request]int)
	handed := 0
	for _, fe := range r.Dep.FEs {
		next := fe.OnFetch
		fe.OnFetch = func(fr frontend.FetchRecord) {
			handed++
			seen[request{fr.Client, fr.ClientPort, fr.Arrived}]++
			next(fr)
		}
	}
	r.Run()
	handled, retries, degraded := 0, 0, 0
	for _, fe := range r.Dep.FEs {
		handled += fe.Served() - fe.Rejected()
		retries += fe.BERetries()
		degraded += fe.BERejectedFetches()
	}
	if retries == 0 || degraded == 0 {
		t.Fatalf("retries %d, degraded fetches %d: the scenario does not overload the BE", retries, degraded)
	}
	if handed != handled || len(seen) != handed {
		t.Fatalf("%d hand-overs of %d distinct requests, FEs handled %d", handed, len(seen), handled)
	}
}

// countMeasurer measures nothing; the Runner marks what it was handed.
type countMeasurer struct{ n int }

func (m *countMeasurer) Measure(*Record, []capture.Event) { m.n++ }

// TestLiveTableHoldsOnlyInFlight: a world's live table holds a query
// from its issue until its record is done with — completed, or, with a
// measurer, measured — and nothing longer, so it tracks concurrency,
// not history. Probes every 100 ms of a campaign find no entry whose
// record is finished. Mutation: stop removing the entry in complete, or
// in the measurer's OnFinal.
func TestLiveTableHoldsOnlyInFlight(t *testing.T) {
	for _, m := range []*countMeasurer{nil, {}} {
		opts := Options{Nodes: 40, FleetSeed: 32}
		if m != nil {
			opts.Measure = m
		}
		r, err := New(31, cdn.GoogleLike(31), opts)
		if err != nil {
			t.Fatal(err)
		}
		peak := 0
		for at := time.Duration(0); at < 20*time.Second; at += 100 * time.Millisecond {
			r.Sim.ScheduleAt(at, func() {
				peak = max(peak, len(r.live))
				for k, q := range r.live {
					if (m == nil && !q.rr.Failed) || q.rr.Measured {
						t.Fatalf("measurer %v: live entry %v at %v is finished (done at %v, measured %v)",
							m != nil, k, r.Sim.Now(), q.rr.DoneAt, q.rr.Measured)
					}
				}
			})
		}
		ds := r.RunExperimentA(AOptions{QueriesPerNode: 6, Interval: 2 * time.Second, QuerySeed: 33})
		if peak == 0 || peak >= len(ds.Records) {
			t.Fatalf("measurer %v: peak live %d of %d records", m != nil, peak, len(ds.Records))
		}
		if m != nil && m.n != len(ds.Records) {
			t.Fatalf("measured %d of %d records", m.n, len(ds.Records))
		}
	}
}

// TestFailoverRecordsNameTheBEUsed fails every FE over, mid-run, to the
// data center farthest from it. Every served record names the BE its
// fetch went to, with that BE's base RTT: before the switch the FE's
// nearest; after it the far one, or the nearest for a fetch that rode a
// connection dialed before the switch and pooled again after it. Each
// BE served exactly the fetches the records name it for.
func TestFailoverRecordsNameTheBEUsed(t *testing.T) {
	const failAt = 24 * time.Second
	cfg := cdn.BingLike(43)
	cfg.BEOptions.Queue = backend.QueueOptions{Replicas: 8, Policy: backend.LeastOutstanding}
	r, err := New(44, cfg, Options{Nodes: 32, FleetSeed: 45, SnapPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	near, far := map[simnet.HostID]simnet.HostID{}, map[simnet.HostID]simnet.HostID{}
	for _, fe := range r.Dep.FEs {
		be := r.Dep.FarthestBE(fe.Site().Point)
		r.Dep.WireFEBE(fe, be)
		near[fe.Host()], far[fe.Host()] = fe.BEHost(), be.Host()
		r.Sim.ScheduleAt(failAt, func() { fe.SetBEHost(be.Host()) })
	}
	ds := r.RunOpenLoop(OpenLoopOptions{Horizon: 2 * failAt, BaseInterval: 2 * time.Second,
		QueriesPerNode: 20, QuerySeed: 46})
	named := map[simnet.HostID]int{}
	moved := 0
	for i, rr := range ds.Records {
		if rr.Failed {
			continue
		}
		named[rr.Fetch.BE]++
		be := rr.Fetch.BE
		switch {
		case be == near[rr.FE]:
		case be == far[rr.FE] && rr.IssuedAt >= failAt:
			moved++
		default:
			t.Fatalf("record %d (FE %s, issued %v) names BE %q", i, rr.FE, rr.IssuedAt, be)
		}
		if rr.BERTT != r.Net.RTT(rr.FE, be) {
			t.Fatalf("record %d names BE %s at %v, its base RTT is %v", i, be, rr.BERTT, r.Net.RTT(rr.FE, be))
		}
	}
	if moved == 0 {
		t.Fatal("no record issued after the switch names its far BE")
	}
	for _, dc := range r.Dep.BEs {
		if named[dc.Host()] != dc.Served() {
			t.Errorf("BE %s served %d fetches, records name it %d times", dc.Host(), dc.Served(), named[dc.Host()])
		}
	}
}
