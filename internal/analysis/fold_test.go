package analysis

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fesplit/internal/backend"
	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/frontend"
	"fesplit/internal/obs"
	"fesplit/internal/obs/critpath"
	"fesplit/internal/trace"
)

// overloadedWorld drives a short open-loop campaign against a Bing-like
// deployment with a single BE replica behind an FE→BE pool that admits
// two fetches at a time and queues one more, so the dataset holds fully
// served queries (some BE-queued) and 503 rejections. The world reports
// to o (nil: unobserved).
func overloadedWorld(t *testing.T, o *obs.Observer) *emulator.Dataset {
	t.Helper()
	cfg := cdn.SingleBE(cdn.BingLike(7), "bing-be-virginia")
	cfg.BEOptions.Queue = backend.QueueOptions{Replicas: 1}
	cfg.FEPool = frontend.PoolConfig{MaxConns: 2, QueueCap: 1}
	r, err := emulator.New(7, cfg, emulator.Options{Nodes: 12, FleetSeed: 8, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	return r.RunOpenLoop(emulator.OpenLoopOptions{
		FE: r.Dep.FEs[0], Horizon: 12 * time.Second, BaseInterval: time.Second, QueriesPerNode: 6, QuerySeed: 9,
	})
}

// overloadedRun is overloadedWorld with FE ground truth joined on (the
// observer carries a sampler). Returns the dataset and the service's
// content boundary, derived from the served responses.
func overloadedRun(t *testing.T) (*emulator.Dataset, int) {
	t.Helper()
	ds := overloadedWorld(t, obs.NewTailObserver(obs.TailConfig{}))
	served := &emulator.Dataset{}
	for _, rec := range ds.Records {
		if rec.Status == 200 {
			served.Records = append(served.Records, rec)
		}
	}
	boundary := BoundaryFromDataset(served)
	if boundary <= 0 {
		t.Fatal("no content boundary derivable")
	}
	return ds, boundary
}

// pick returns the first record of ds satisfying want.
func pick(t *testing.T, ds *emulator.Dataset, what string, want func(*emulator.Record) bool) emulator.Record {
	t.Helper()
	for i := range ds.Records {
		if want(&ds.Records[i]) {
			return ds.Records[i]
		}
	}
	t.Fatalf("dataset holds no %s record", what)
	return emulator.Record{}
}

// counts reads how many observations each (family, last label value)
// pair of reg holds: sketch counts, or counter values.
func counts(reg *obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, f := range reg.Families() {
		for _, s := range f.Series() {
			key := f.Name + "/" + s.LabelValues[len(s.LabelValues)-1]
			switch {
			case s.Sketch != nil:
				out[key] += s.Sketch.Count()
			case s.Counter != nil:
				out[key] += uint64(s.Counter.Value())
			}
		}
	}
	return out
}

// TestFoldFeedsByRecordKind pins the skip rules the fold applies to the
// four kinds of record a campaign produces — which families each one
// feeds, whether it yields parameters, and whether it is offered.
func TestFoldFeedsByRecordKind(t *testing.T) {
	ds, boundary := overloadedRun(t)
	located := pick(t, ds, "fully served", func(r *emulator.Record) bool {
		_, _, err := NewMeasurer(boundary).ExtractRecord(r)
		return err == nil
	})
	// A 503's short body parses but ends before the boundary.
	rejected := pick(t, ds, "503", func(r *emulator.Record) bool { return r.Status == 503 })
	if _, s, err := NewMeasurer(boundary).ExtractRecord(&rejected); s == nil || err == nil {
		t.Fatalf("503 record: session %v err %v, want a parsed session the boundary is not in", s, err)
	}
	// A keep-alive query shares its connection's trace: no key, no events.
	keepAlive := located
	keepAlive.Key, keepAlive.Events = capture.ConnKey{}, nil
	failed := located
	failed.Failed = true

	overall := []string{"query_phase_seconds/overall", "fe_overall_seconds/" + string(located.FE), "vantage_overall_seconds/" + string(located.Node)}
	client := []string{"query_phase_seconds/handshake", "query_phase_seconds/get", "query_phase_seconds/delivery"}
	crit := []string{"critpath_records_total/scenario", "critpath_phase_seconds/be-proc", "critpath_fetch_seconds/estimate", "critpath_fetch_seconds/truth"}
	for _, tc := range []struct {
		name    string
		rec     emulator.Record
		fed     [][]string
		ok      bool
		offered int
	}{
		{"located session", located, [][]string{overall, client, crit}, true, 1},
		{"parsed, boundary not located", rejected, [][]string{
			{"query_phase_seconds/overall", "fe_overall_seconds/" + string(rejected.FE), "vantage_overall_seconds/" + string(rejected.Node)}, client}, false, 0},
		{"no events", keepAlive, [][]string{overall}, false, 0},
		{"failed", failed, nil, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			ts := obs.NewTailSampler(obs.TailConfig{})
			fold := NewFold(reg, "svc", "scenario", boundary, ts, boundTol)
			p, ok := fold.Consume(&tc.rec)
			if ok != tc.ok || (p != Params{}) != tc.ok {
				t.Fatalf("Consume = %+v, %v; want parameters: %v", p, ok, tc.ok)
			}
			if ts.Offered() != tc.offered || fold.Attributed != tc.offered {
				t.Fatalf("offered %d attributed %d, want %d each", ts.Offered(), fold.Attributed, tc.offered)
			}
			want := map[string]bool{}
			for _, group := range tc.fed {
				for _, k := range group {
					want[k] = true
				}
			}
			got := counts(reg)
			for k := range want {
				if got[k] != 1 {
					t.Errorf("%s holds %d observations, want 1", k, got[k])
				}
			}
			for k, n := range got {
				// Every critical-path phase is observed per attributed
				// record, zeros included; the table names one of them.
				if n != 0 && !want[k] && !(tc.offered == 1 && strings.HasPrefix(k, "critpath_phase_seconds/")) {
					t.Errorf("%s fed %d observations, want none", k, n)
				}
			}
			if got["query_phase_seconds/dns"] != 0 {
				t.Error("dns phase fed by a record that paid no resolution cost")
			}
		})
	}

	// DNS cost is fed exactly when paid, and the span starts that much
	// before the SYN.
	paid := located
	paid.DNSTime = 30 * time.Millisecond
	reg := obs.NewRegistry()
	ts := obs.NewTailSampler(obs.TailConfig{})
	NewFold(reg, "svc", "scenario", boundary, ts, boundTol).Consume(&paid)
	if counts(reg)["query_phase_seconds/dns"] != 1 {
		t.Error("dns phase not fed by a record that paid a resolution cost")
	}
	root := ts.Select()[0].Span
	if dns := find(root, "dns-resolve"); dns == nil || dns.Start != root.Start || dns.Dur() != paid.DNSTime {
		t.Errorf("dns-resolve span %+v does not cover the %v before the query was issued", dns, paid.DNSTime)
	}
}

// TestFoldSpanCarriesJoinedGroundTruth checks the span tree and the
// critical-path query against the record they were built from:
// client-side phases from the parsed session, FE-side phases exactly the
// joined FE record's instants on their own track, the back-end link and
// queue wait read off the record — and none of the FE side, in tree or
// query, when nothing was joined.
func TestFoldSpanCarriesJoinedGroundTruth(t *testing.T) {
	ds, boundary := overloadedRun(t)
	queued := pick(t, ds, "BE-queued", func(r *emulator.Record) bool {
		_, _, err := NewMeasurer(boundary).ExtractRecord(r)
		return err == nil && r.Fetch.QueueWait > 0
	})
	_, s, _ := NewMeasurer(boundary).ExtractRecord(&queued)
	root := span(&queued, s)
	if root.Start != queued.IssuedAt || root.End != queued.DoneAt || root.Key != obs.ConnKey(queued.Key) {
		t.Fatalf("root span %+v does not cover the query", root)
	}
	for _, name := range []string{"tcp-handshake", "get-request", "delivery"} {
		if c := find(root, name); c == nil || c.Track != "client" {
			t.Errorf("client-side phase %q missing or off the client track: %+v", name, c)
		}
	}
	fr := queued.Fetch
	if c := find(root, "fe-static-flush"); c == nil || c.Track != "frontend" || c.Start != fr.Arrived || c.End != fr.StaticAt {
		t.Errorf("fe-static-flush %+v, want [%v, %v] on the frontend track", c, fr.Arrived, fr.StaticAt)
	}
	fetch := find(root, fetchSpan)
	if fetch == nil || fetch.Track != "frontend" || fetch.Start != fr.Arrived || fetch.End != fr.FetchDone || fetch.Dur() != queued.TrueFetch {
		t.Fatalf("fe-fetch %+v, want [%v, %v] on the frontend track", fetch, fr.Arrived, fr.FetchDone)
	}
	a := critpath.Attribute(query(&queued), *s)
	if a.BERTT != queued.BERTT || a.BEQueue != fr.QueueWait || a.FEArrival != fr.Arrived || a.ArrivalInferred {
		t.Errorf("attribution read BE RTT %v queue %v arrival %v inferred %v off the record, want %v / %v / %v / false",
			a.BERTT, a.BEQueue, a.FEArrival, a.ArrivalInferred, queued.BERTT, fr.QueueWait, fr.Arrived)
	}

	unjoined := queued
	unjoined.Fetch, unjoined.TrueFetch = frontend.FetchRecord{}, 0
	root = span(&unjoined, s)
	if find(root, fetchSpan) != nil || find(root, "fe-static-flush") != nil {
		t.Error("span of an unjoined record still shows FE-side phases")
	}
	if q := query(&unjoined); q.FEArrival >= 0 || q.BERTT != 0 || q.BEQueue != 0 {
		t.Errorf("query of an unjoined record %+v still carries FE-side cut points", q)
	}
}

// TestFoldExemplarsSurvive folds a thousand records through one fold:
// the exemplars the sampler retained — trees built only for them — must
// keep their full trees, cp:* waterfall included, to the end. Two
// same-input folds export byte-identical spans.
func TestFoldExemplarsSurvive(t *testing.T) {
	ds, boundary := overloadedRun(t)
	run := func() (*Fold, *obs.TailSampler) {
		ts := obs.NewTailSampler(obs.TailConfig{Percentile: 0.9, MaxExemplars: 8})
		fold := NewFold(obs.NewRegistry(), "svc", "svc", boundary, ts, boundTol)
		for n := 0; n < 1000; {
			for i := range ds.Records {
				fold.Consume(&ds.Records[i])
				n++
			}
		}
		return fold, ts
	}
	fold, ts := run()
	sel := ts.Select()
	if len(sel) == 0 || len(sel) > 8+fold.Violations {
		t.Fatalf("selected %d exemplars (cap 8 + %d violations)", len(sel), fold.Violations)
	}
	for _, e := range sel {
		var cp time.Duration
		for _, c := range e.Span.Children {
			if c.Track == critpath.AnnotationTrack {
				if !strings.HasPrefix(c.Name, "cp:") {
					t.Fatalf("annotation child %q is not a cp:* span", c.Name)
				}
				cp += c.Dur()
			}
		}
		if e.Span.Name != "query" || find(e.Span, "delivery") == nil || cp != e.Span.Dur() {
			t.Fatalf("retained exemplar lost its tree: cp:* children cover %v of %v", cp, e.Span.Dur())
		}
	}
	_, again := run()
	var a, b bytes.Buffer
	for _, out := range []struct {
		buf *bytes.Buffer
		ts  *obs.TailSampler
	}{{&a, ts}, {&b, again}} {
		tr := obs.NewTracer()
		for _, e := range out.ts.Select() {
			tr.Add(e.Span)
		}
		if err := obs.WriteSpansJSONL(out.buf, tr); err != nil {
			t.Fatal(err)
		}
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("span exports differ across two folds of the same records")
	}
}

// find returns the first span of the tree (depth-first, root included)
// with the given name, or nil.
func find(s *obs.Span, name string) *obs.Span {
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if m := find(c, name); m != nil {
			return m
		}
	}
	return nil
}

// TestExtractRecordReturnsUnlocatedSession pins the one contract the
// fold adds to ExtractRecord: a session that parsed comes back even when
// the boundary is not in it, alongside the error.
func TestExtractRecordReturnsUnlocatedSession(t *testing.T) {
	ds, boundary := overloadedRun(t)
	rec := pick(t, ds, "fully served", func(r *emulator.Record) bool {
		_, _, err := NewMeasurer(boundary).ExtractRecord(r)
		return err == nil
	})
	p, s, err := NewMeasurer(1 << 30).ExtractRecord(&rec)
	if err == nil || s == nil || (p != Params{}) {
		t.Fatalf("ExtractRecord past the stream = %+v, %v, %v; want zero params, the session, an error", p, s, err)
	}
	want, _ := trace.Parse(rec.Key, rec.Events)
	if s.RTT != want.RTT || s.T3 != want.T3 || s.TE != want.TE {
		t.Error("returned session differs from a fresh parse")
	}
}

// raceEnabled is set by race_test.go when the race detector is compiled
// in: it allocates on its own account, so an exact allocation pin skips.
var raceEnabled bool

// TestObservedQueryAllocOverhead puts the cost of observing on the
// ledger in a machine-independent unit: the same world at the same seed
// run unobserved and measured with ExtractDataset, then run under a
// tail observer and measured with a Fold feeding its registry and
// sampler, compared in allocations per query. Counts are exact at a
// fixed seed, so the limit sits 0.15 % over the measured ratio: 0.3
// allocations per query is room for a few objects of world set-up (a
// new unlabeled family costs about five per world, 0.04 per query) and
// none for one more allocation per folded record, which adds 0.5 per
// query even when only the measurable half of the records pays it. No
// pin holds under the race detector: its sync.Pool drops pooled objects
// at random, so fmt in world set-up allocates at random, and six race
// runs read ratios 1.7084 to 1.7126, wider than the room; the pins skip
// there and `make alloc-pins` runs them without it. The ratio moves
// when either arm does — it was 1.3946
// (148.1 → 206.5) until tcpsim stopped copying payloads, and 1.4038
// (144.7 → 203.1) until drained fast-lane rings started handing their
// slot arrays back for reuse, and 1.4158 (140.3 → 198.6) until HTTP
// heads and query URLs went to one allocation each, and 1.6189
// (93.9 → 152.0) until world set-up shared one popularity table and
// resolved client paths on first use, and 1.6508 (87.9 → 145.0) until
// trace.Parse stopped growing and reflect-sorting its arrivals and lane
// segments stopped being boxed on a demux change, and 1.6730
// (85.0 → 142.1) until datasets were presized, client connections
// recycled and capture sessions sealed exact-size, and 1.6923
// (82.6 → 139.8) until a measurer parsed every record into one reused
// session, which took three allocations per query off both arms, and
// 1.7162 (79.9 → 137.1) until FE connections recycled and the HTTP
// exchange stopped building closures, maps and heads per request, which
// took 25.7 off both arms; each
// time the unobserved arm fell with the observer's cost unchanged — so
// the difference between the arms is pinned too, with the same 0.3 of
// room: a changed denominator moves only the ratio, a costlier observer
// moves both (the difference is exact only without the race detector,
// which allocates in both arms). Then the observer itself got cheaper:
// 2.0544 (54.2 → 111.4, 57.1 apart) until the fold stopped building a
// span tree for every record — attribution reads the record's fields
// and a tree, sized once, is built only for an exemplar the sampler
// keeps — which took 5.0 per query off the observed arm alone; and
// 1.9559 (54.4 → 106.4, 52.0 apart) until the registry looked label
// keys up without building a string and the sketch store went dense,
// which took 15.6 per query off it; and 1.6700 (54.4 → 90.85, 36.45
// apart) until a record whose content boundary cannot be located got a
// fixed error instead of a formatted one, which took 1.5 per query off
// both arms.
//
// The whole-world arms wobble by one allocation per run (about 0.05 %,
// a third of the room), so a third arm is exact: Consume over a
// prebuilt dataset, with the registry and the sampler warmed by one
// pass. It counts what the fold itself allocates in a pass — the span
// trees of the offers the sampler still keeps — and was 703 while each
// record whose boundary cannot be located formatted its error, and
// 2 407 (16.95 per query) while every record built its label keys.
// Update any pin only with a reason.
func TestObservedQueryAllocOverhead(t *testing.T) {
	ds, boundary := overloadedRun(t)
	queries := float64(len(ds.Records))
	unobserved := testing.AllocsPerRun(5, func() {
		ExtractDataset(overloadedWorld(t, nil), boundary)
	}) / queries
	observed := testing.AllocsPerRun(5, func() {
		o := obs.NewTailObserver(obs.TailConfig{})
		ds := overloadedWorld(t, o)
		fold := NewFold(o.Reg, "svc", "svc", boundary, o.Tail, boundTol)
		for i := range ds.Records {
			fold.Consume(&ds.Records[i])
		}
	}) / queries
	o := obs.NewTailObserver(obs.TailConfig{})
	fold := NewFold(o.Reg, "svc", "svc", boundary, o.Tail, boundTol)
	pass := func() {
		for i := range ds.Records {
			fold.Consume(&ds.Records[i])
		}
	}
	pass()
	foldOnly := testing.AllocsPerRun(5, pass)
	t.Logf("%.4f → %.4f allocations per query (ratio %.5f, %.4f apart); a warm fold pass over %.0f records: %.0f",
		unobserved, observed, observed/unobserved, observed-unobserved, queries, foldOnly)
	const (
		measured      = 1.6889 // 52.9 → 89.35 allocations per query at seed 7
		measuredDelta = 36.45  // what observing adds per query
		measuredFold  = 490    // allocations of one warm fold pass
	)
	if ratio := observed / unobserved; !raceEnabled && ratio > measured*1.0015 {
		t.Errorf("observing costs %.1f → %.1f allocations per query, ratio %.4f: more than 0.15 %% over the pinned %.4f (if only the unobserved arm moved, the delta pin below still holds: re-pin the ratio)",
			unobserved, observed, ratio, measured)
	}
	if delta := observed - unobserved; !raceEnabled && delta > measuredDelta+0.3 {
		t.Errorf("observing adds %.2f allocations per query (%.1f → %.1f), more than 0.3 over the pinned %.2f: the observer itself got costlier",
			delta, unobserved, observed, measuredDelta)
	}
	if !raceEnabled && foldOnly != measuredFold {
		t.Errorf("a warm fold pass allocates %.0f objects, want %d", foldOnly, measuredFold)
	}
}

// TestRejectedRecordFoldAllocs pins what one Fold.Consume costs for a
// measurable record the sampler rejects — the common case, since the
// sampler keeps a few tail exemplars out of every record: the record
// with the smallest Tdynamic, folded into a registry and a 4-exemplar
// sampler that one pass over the dataset has warmed. The attribution
// reads the record, no span tree is built, and every label key the
// record names is looked up in a stack buffer and found, so nothing is
// allocated (12 objects while each lookup built its key string; 34
// while every record built an arena tree, parsed its attributes back
// and hung heap cp:* children on it). Exact at a fixed seed; update
// only with a reason.
func TestRejectedRecordFoldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	ds, boundary := overloadedRun(t)
	var rec *emulator.Record
	var least time.Duration
	m := NewMeasurer(boundary)
	for i := range ds.Records {
		r := &ds.Records[i]
		p, _, err := m.ExtractRecord(r)
		if err != nil || p.ViolatesBounds(r.TrueFetch, boundTol) {
			continue
		}
		if rec == nil || p.Tdynamic < least {
			rec, least = r, p.Tdynamic
		}
	}
	if rec == nil {
		t.Fatal("dataset holds no measurable, non-violating record")
	}
	ts := obs.NewTailSampler(obs.TailConfig{MaxExemplars: 4})
	fold := NewFold(obs.NewRegistry(), "svc", "svc", boundary, ts, boundTol)
	for i := range ds.Records {
		fold.Consume(&ds.Records[i])
	}
	warm := ts.Offered()
	const pinned = 0
	if got := testing.AllocsPerRun(20, func() { fold.Consume(rec) }); got != pinned {
		t.Errorf("folding a rejected record allocates %v objects, want %d", got, pinned)
	}
	for _, e := range ts.Select() {
		if e.Seq >= warm {
			t.Fatalf("the sampler kept offer %d of the pinned record (Tdynamic %v): it was meant to be rejected", e.Seq, least)
		}
	}
}
