package emulator_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"fesplit/internal/backend"
	"fesplit/internal/capture"
	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/frontend"
	"fesplit/internal/tcpsim"
	"fesplit/internal/vantage"
)

// A length-only world (Options.SnapPayloads) must be the full-payload
// world minus the bytes: same wire byte counts, same random draws,
// hence the same packets at the same instants. twinWorlds builds one
// world both ways and compares everything a study can observe.

// lossyAccess is the benchmark's lossy-access last mile: slow, jittery,
// 3 % loss, so hole retransmissions and go-back-N cut segments
// differently from their first transmission.
var lossyAccess = vantage.AccessProfile{
	OneWayMin: 2 * time.Millisecond, OneWayMax: 15 * time.Millisecond,
	Jitter: 4 * time.Millisecond, Loss: 0.03,
}

type twinCase struct {
	name string
	dep  cdn.Config
	opts emulator.Options
	run  func(*emulator.Runner) *emulator.Dataset
	// covered, when set, fails the case if the dataset does not show
	// the behaviour the case exists for.
	covered func(*testing.T, *emulator.Dataset)
}

func experimentA(r *emulator.Runner) *emulator.Dataset {
	return r.RunExperimentA(emulator.AOptions{QueriesPerNode: 4, Interval: 2 * time.Second, QuerySeed: 3})
}

// twinWorlds runs tc in a full-payload and in a snapped world and
// requires identical records, packets, FE ground truth and engine
// totals. It returns the snapped dataset.
func twinWorlds(t *testing.T, tc twinCase) *emulator.Dataset {
	t.Helper()
	build := func(snap bool) (*emulator.Runner, *emulator.Dataset) {
		opts := tc.opts
		opts.FleetSeed, opts.SnapPayloads = 72, snap
		r, err := emulator.New(71, tc.dep, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r, tc.run(r)
	}
	fullR, full := build(false)
	snapR, snap := build(true)

	if a, b := fullR.Sim.Now(), snapR.Sim.Now(); a != b {
		t.Fatalf("final sim time: %v full, %v snapped", a, b)
	}
	if a, b := fullR.Sim.Processed, snapR.Sim.Processed; a != b {
		t.Fatalf("executed events: %d full, %d snapped", a, b)
	}
	if !reflect.DeepEqual(full.FEFetchTimes, snap.FEFetchTimes) {
		t.Fatal("FE ground-truth fetch times differ")
	}
	if len(full.Records) != len(snap.Records) || len(full.Records) == 0 {
		t.Fatalf("records: %d full, %d snapped", len(full.Records), len(snap.Records))
	}
	for i := range full.Records {
		a, b := &full.Records[i], &snap.Records[i]
		if a.Status != b.Status || a.BodyLen != b.BodyLen || a.IssuedAt != b.IssuedAt || a.DoneAt != b.DoneAt || a.Failed != b.Failed {
			t.Fatalf("record %d: full {status %d len %d %v→%v failed %v}, snapped {status %d len %d %v→%v failed %v}",
				i, a.Status, a.BodyLen, a.IssuedAt, a.DoneAt, a.Failed, b.Status, b.BodyLen, b.IssuedAt, b.DoneAt, b.Failed)
		}
		if len(a.Events) != len(b.Events) {
			t.Fatalf("record %d: %d events full, %d snapped", i, len(a.Events), len(b.Events))
		}
		var sackA, sackB map[int][]tcpsim.SACKBlock
		if len(a.Events) > 0 { // keep-alive records carry no events, their datasets no traces
			sackA, sackB = full.Traces[a.Node].SACK(a.Key), snap.Traces[b.Node].SACK(b.Key)
		}
		for j := range a.Events {
			if !sameOnTheWire(a.Events[j], b.Events[j]) || !reflect.DeepEqual(sackA[j], sackB[j]) {
				t.Fatalf("record %d event %d:\nfull    %+v sack %v\nsnapped %+v sack %v",
					i, j, a.Events[j], sackA[j], b.Events[j], sackB[j])
			}
			if len(b.Events[j].Data) != 0 {
				t.Fatalf("record %d event %d: snapped capture holds %d payload bytes", i, j, len(b.Events[j].Data))
			}
		}
	}
	if tc.covered != nil {
		tc.covered(t, snap)
	}
	return snap
}

// sameOnTheWire compares two captured events field by field, payload
// bytes excepted (each world numbers its hosts the same way, so the
// host index stands for the host).
func sameOnTheWire(a, b capture.Event) bool {
	a.Data, b.Data = nil, nil
	return reflect.DeepEqual(a, b)
}

func TestTwinWorlds(t *testing.T) {
	lossy := func(tcp tcpsim.Config) twinCase {
		dep := cdn.GoogleLike(1)
		dep.FETCP = tcp
		return twinCase{dep: dep, run: experimentA,
			opts: emulator.Options{Nodes: 40, Access: lossyAccess, ClientTCP: tcp},
			covered: func(t *testing.T, ds *emulator.Dataset) {
				retrans := 0
				for _, rec := range ds.Records {
					for _, ev := range rec.Events {
						if ev.Retransmitted() && ev.Dir == tcpsim.DirRecv && ev.Len > 0 {
							retrans++
						}
					}
				}
				if retrans == 0 {
					t.Fatal("no data retransmission reached a client: the lossy case recovers nothing")
				}
			}}
	}
	withBE := func(o backend.Options) cdn.Config {
		dep := cdn.GoogleLike(1)
		dep.BEOptions = o
		return dep
	}
	noSplit := cdn.BingLike(1)
	noSplit.DisableSplitTCP = true

	overload := cdn.SingleBE(cdn.BingLike(1), "bing-be-virginia")
	overload.BEOptions.Queue = backend.QueueOptions{Replicas: 1, QueueCap: 1}
	overload.FEPool = frontend.PoolConfig{MaxConns: 3, QueueCap: 1, Retries: 1, Backoff: 10 * time.Millisecond}
	staticLen := len(overload.Spec.StaticPrefix())

	sackCase, delackCase := lossy(tcpsim.Config{SACK: true}), lossy(tcpsim.Config{DelayedAck: true})
	sackCase.name, delackCase.name = "lossy access, SACK", "lossy access, delayed ACK"
	cases := []twinCase{
		{name: "campus loss-free", dep: cdn.GoogleLike(1), opts: emulator.Options{Nodes: 12}, run: experimentA},
		sackCase,
		delackCase,
		{name: "keep-alive chunked", dep: cdn.BingLike(1), opts: emulator.Options{Nodes: 8},
			run: func(r *emulator.Runner) *emulator.Dataset {
				return r.RunKeepAliveA(emulator.AOptions{QueriesPerNode: 4, Interval: 2 * time.Second, QuerySeed: 3})
			}},
		{name: "BE queue cap, FE pool cap", dep: overload, opts: emulator.Options{Nodes: 24},
			run: func(r *emulator.Runner) *emulator.Dataset {
				return r.RunOpenLoop(emulator.OpenLoopOptions{
					FE: r.Dep.FEs[0], QueriesPerNode: 6, QuerySeed: 3,
					Horizon: 12 * time.Second, BaseInterval: 600 * time.Millisecond,
				})
			},
			covered: func(t *testing.T, ds *emulator.Dataset) {
				var ok, refused, degraded int
				for _, rec := range ds.Records {
					switch {
					case rec.Status == 503:
						refused++
					case rec.BodyLen == staticLen:
						degraded++
					case rec.BodyLen > staticLen:
						ok++
					}
				}
				if ok == 0 || refused == 0 || degraded == 0 {
					t.Fatalf("outcomes: %d served, %d refused (503), %d static-only; want all three", ok, refused, degraded)
				}
			}},
		{name: "BE result cache", dep: withBE(backend.Options{CacheResults: true}), opts: emulator.Options{Nodes: 10}, run: experimentA},
		{name: "BE serves full page", dep: withBE(backend.Options{ServeFullPage: true}), opts: emulator.Options{Nodes: 6}, run: experimentA},
		{name: "no split TCP", dep: noSplit, opts: emulator.Options{Nodes: 10}, run: experimentA},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { twinWorlds(t, tc) })
	}
}

// TestTwinWorldsGzipStaysMaterialised: compressed sizes depend on
// content, so a Gzip deployment keeps building it when snapped — were
// it length-only, every body length below would differ from the
// unsnapped twin's.
func TestTwinWorldsGzipStaysMaterialised(t *testing.T) {
	dep := cdn.GoogleLike(1)
	dep.Gzip = true
	plain := len(dep.Spec.StaticPrefix()) + dep.Spec.DynamicBase
	snap := twinWorlds(t, twinCase{dep: dep, opts: emulator.Options{Nodes: 6}, run: experimentA})
	for i, rec := range snap.Records {
		if rec.BodyLen == 0 || rec.BodyLen >= plain {
			t.Fatalf("record %d: body of %d bytes is not a compressed page (plain ≥ %d)", i, rec.BodyLen, plain)
		}
	}
}

// countSink is a RecordSink that keeps nothing.
type countSink struct{ n int }

func (s *countSink) Consume(*emulator.Record) { s.n++ }

// TestLengthOnlyAllocBudget pins what a length-only query may allocate:
// a 400-client fleet campaign (always length-only) measures ≈ 15 KB per
// completed query — it was ≈ 254 KB when every layer built, buffered
// and copied the ≈ 30 KB page — and the budget sits below one page
// above that, so a single reintroduced body copy fails it. A
// full-payload Runner on the same deployment allocates at least four
// times as much (measured 5.6×: 76 KB against 14 KB — it was 9.9× while
// tcpsim and trace.Parse still copied every response byte), so the test
// also fails if snapping silently stops selecting the mode.
func TestLengthOnlyAllocBudget(t *testing.T) {
	const budget = 24 << 10
	dep := cdn.GoogleLike(1)
	perQuery := func(run func() int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := run()
		runtime.ReadMemStats(&after)
		if n < 400 {
			t.Fatalf("only %d queries completed", n)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	lengthOnly := perQuery(func() int {
		r, err := emulator.NewFleetRunner(11, dep, emulator.FleetOptions{
			Clients: 400, Curve: emulator.DefaultDiurnalCurve(time.Minute, 20),
			FleetSeed: 12, QuerySeed: 13, Sink: &countSink{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Run().Completed
	})
	full := perQuery(func() int {
		r, err := emulator.New(11, dep, emulator.Options{Nodes: 40, FleetSeed: 12})
		if err != nil {
			t.Fatal(err)
		}
		return len(r.RunExperimentA(emulator.AOptions{QueriesPerNode: 10, Interval: time.Second, QuerySeed: 13}).Records)
	})
	t.Logf("allocated per query: %.0f B length-only, %.0f B full-payload (%.1f×)", lengthOnly, full, full/lengthOnly)
	if lengthOnly > budget {
		t.Fatalf("length-only world allocates %.0f B per query, budget %d", lengthOnly, budget)
	}
	if full < 4*lengthOnly {
		t.Fatalf("full-payload world allocates %.0f B per query, under 4× the length-only %.0f: is the fleet still length-only?", full, lengthOnly)
	}
}
