package emulator

import (
	"hash/fnv"
	"math"
	"testing"
	"time"

	"fesplit/internal/backend"
	"fesplit/internal/cdn"
	"fesplit/internal/frontend"
	"fesplit/internal/obs"
	rt "fesplit/internal/obs/runtime"
	"fesplit/internal/trace"
)

func TestDiurnalArrivalsConstantRate(t *testing.T) {
	c := DiurnalCurve{Points: []RatePoint{{At: 0, Rate: 10}, {At: 10 * time.Second, Rate: 10}}}
	gen := newArrivals(c)
	var times []time.Duration
	for {
		at, ok := gen.next()
		if !ok {
			break
		}
		times = append(times, at)
	}
	if len(times) != 100 {
		t.Fatalf("constant 10/s over 10s yielded %d arrivals, want 100", len(times))
	}
	for i, at := range times {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if d := at - want; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("arrival %d at %v, want %v", i, at, want)
		}
	}
}

func TestDiurnalArrivalsRampIntegral(t *testing.T) {
	// Rate ramps 0 → 20/s over 10 s: integral = 100 arrivals, times
	// strictly increasing, crossing density following the ramp.
	c := DiurnalCurve{Points: []RatePoint{{At: 0, Rate: 0}, {At: 10 * time.Second, Rate: 20}}}
	gen := newArrivals(c)
	var times []time.Duration
	for {
		at, ok := gen.next()
		if !ok {
			break
		}
		times = append(times, at)
	}
	if n := len(times); n < 99 || n > 100 {
		t.Fatalf("ramp integral yielded %d arrivals, want ~100", n)
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("arrival times not strictly increasing at %d: %v then %v", i, times[i-1], times[i])
		}
	}
	// Closed form: cumulative arrivals at t is t² (rate 2t per second):
	// the k-th arrival lands at sqrt(k+1) seconds.
	for _, k := range []int{0, 24, 80} {
		want := math.Sqrt(float64(k + 1))
		got := times[k].Seconds()
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("arrival %d at %.9fs, want %.9fs", k, got, want)
		}
	}
	// Determinism: a second walk reproduces the sequence bit for bit.
	gen2 := newArrivals(c)
	for i := range times {
		at, ok := gen2.next()
		if !ok || at != times[i] {
			t.Fatalf("second walk diverged at %d: %v vs %v", i, at, times[i])
		}
	}
}

func TestDefaultDiurnalCurveShape(t *testing.T) {
	c := DefaultDiurnalCurve(time.Hour, 100)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	pts := c.Points
	if end := pts[len(pts)-1].At; end != time.Hour {
		t.Fatalf("horizon %v", end)
	}
	if mid := pts[2]; mid.At != 30*time.Minute || mid.Rate != 100 {
		t.Fatalf("mid-day point %+v, want 100 at 30m", mid)
	}
	if pts[0].Rate >= pts[1].Rate {
		t.Fatalf("curve not rising off the trough: %g vs %g", pts[0].Rate, pts[1].Rate)
	}
}

// fleetSink folds records into summary statistics plus a fingerprint —
// the streaming consumer a real study would use, instrumented for
// assertions. Everything it keeps is scalar.
type fleetSink struct {
	n         int
	rejected  int
	parsed    int
	trueFetch int
	// degraded counts joined records whose BE fetch never completed;
	// negFetch records with a negative TrueFetch (must stay zero).
	degraded, negFetch int
	fp                 uint64
}

func (s *fleetSink) Consume(rec *Record) {
	s.n++
	if rec.Status == 503 {
		s.rejected++
	}
	h := fnv.New64a()
	h.Write([]byte(rec.Node))
	h.Write([]byte(rec.FE))
	var buf [32]byte
	for i, v := range []uint64{uint64(rec.IssuedAt), uint64(rec.DoneAt), uint64(rec.Status), uint64(rec.TrueFetch)} {
		for j := 0; j < 8; j++ {
			buf[i*8+j] = byte(v >> (8 * j))
		}
	}
	h.Write(buf[:])
	s.fp = s.fp*1099511628211 ^ h.Sum64()
	switch {
	case rec.TrueFetch > 0:
		s.trueFetch++
	case rec.TrueFetch < 0:
		s.negFetch++
	}
	if rec.Fetch.Arrived > 0 && rec.Fetch.FetchDone == 0 {
		s.degraded++
	}
	if _, err := trace.Parse(rec.Key, rec.Events); err == nil {
		s.parsed++
	}
}

func fleetTestOpts(sink RecordSink, o *obs.Observer) FleetOptions {
	return FleetOptions{
		Clients:   300,
		Curve:     DefaultDiurnalCurve(30*time.Second, 20),
		QuerySeed: 5,
		FleetSeed: 9,
		Obs:       o,
		Sink:      sink,
	}
}

func TestFleetCampaignBoundedAndComplete(t *testing.T) {
	sink := &fleetSink{}
	o := obs.NewTailObserver(obs.TailConfig{})
	eng := rt.NewEngine()
	opts := fleetTestOpts(sink, o)
	opts.Runtime = eng
	r, err := NewFleetRunner(11, cdn.GoogleLike(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()

	if res.Arrivals != opts.Clients || res.Completed != res.Arrivals {
		t.Fatalf("arrivals %d completed %d, want %d each", res.Arrivals, res.Completed, opts.Clients)
	}
	if sink.n != res.Completed {
		t.Fatalf("sink folded %d records, campaign completed %d", sink.n, res.Completed)
	}
	// The whole point: the client population never materializes. The
	// slot pool tracks peak concurrency, far below the client count.
	if res.Slots >= opts.Clients/2 {
		t.Fatalf("slot pool %d did not stay far below %d clients", res.Slots, opts.Clients)
	}
	if res.Slots < res.PeakLive {
		t.Fatalf("slots %d < peak live %d", res.Slots, res.PeakLive)
	}
	// Session quality: completed, parseable, joined to FE ground truth.
	ok := sink.n - sink.rejected
	if sink.parsed < ok*9/10 {
		t.Fatalf("only %d/%d sessions parsed", sink.parsed, ok)
	}
	if sink.trueFetch < ok*9/10 {
		t.Fatalf("only %d/%d sessions joined FE ground truth", sink.trueFetch, ok)
	}
	// Runtime gauges: arrivals counted, everything returned to pools.
	snap := eng.Snapshot()
	if snap.Fleet.Arrivals != uint64(opts.Clients) || snap.Fleet.Live != 0 {
		t.Fatalf("fleet gauges arrivals=%d live=%d, want %d/0", snap.Fleet.Arrivals, snap.Fleet.Live, opts.Clients)
	}
	if snap.Fleet.Slots != int64(res.Slots) || snap.Fleet.Pooled != int64(res.Slots) {
		t.Fatalf("fleet gauges slots=%d pooled=%d, want %d each", snap.Fleet.Slots, snap.Fleet.Pooled, res.Slots)
	}
}

// TestFleetDegradedFetchHasNoTrueFetch overloads a one-replica BE with a
// one-deep queue, so some FE fetches exhaust their retries and degrade
// to static-only: the FE hands the arrival over but the fetch never
// completes. Such a record joins its FE truth yet has no fetch time —
// never a negative one.
func TestFleetDegradedFetchHasNoTrueFetch(t *testing.T) {
	cfg := cdn.SingleBE(cdn.BingLike(1), "bing-be-virginia")
	cfg.BEOptions.Queue = backend.QueueOptions{Replicas: 1, QueueCap: 1}
	cfg.FEPool = frontend.PoolConfig{Retries: 1, Backoff: 5 * time.Millisecond}
	sink := &fleetSink{}
	opts := fleetTestOpts(sink, obs.NewTailObserver(obs.TailConfig{}))
	opts.Curve = DefaultDiurnalCurve(30*time.Second, 40)
	r, err := NewFleetRunner(11, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	if sink.degraded == 0 {
		t.Fatal("no fetch degraded to static-only; the scenario does not overload the BE")
	}
	if sink.trueFetch == 0 {
		t.Fatal("no record joined a completed fetch")
	}
	if sink.negFetch != 0 {
		t.Fatalf("%d of %d folded records carry a negative TrueFetch", sink.negFetch, sink.n)
	}
}

func TestFleetCampaignDeterministic(t *testing.T) {
	run := func() uint64 {
		sink := &fleetSink{}
		r, err := NewFleetRunner(11, cdn.GoogleLike(1), fleetTestOpts(sink, nil))
		if err != nil {
			t.Fatal(err)
		}
		r.Run()
		return sink.fp
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("fleet campaign not deterministic: %x vs %x", a, b)
	}
}

func TestRunFleetShardedDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]uint64, FleetResult) {
		sinks := make([]*fleetSink, 2)
		results, _, _, err := RunFleet(FleetShardedOptions{
			SimSeed:    11,
			Deployment: cdn.GoogleLike(1),
			Fleet:      fleetTestOpts(nil, nil),
			Batches:    2,
			Workers:    workers,
			Sink: func(b int, _ *obs.Observer) RecordSink {
				sinks[b] = &fleetSink{}
				return sinks[b]
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		fps := make([]uint64, len(sinks))
		for i, s := range sinks {
			fps[i] = s.fp
		}
		return fps, MergeFleetResults(results...)
	}
	fp1, sum1 := run(1)
	fp4, sum4 := run(4)
	for i := range fp1 {
		if fp1[i] != fp4[i] {
			t.Fatalf("batch %d diverged across worker counts", i)
		}
	}
	if sum1 != sum4 {
		t.Fatalf("merged results diverged: %+v vs %+v", sum1, sum4)
	}
	if sum1.Arrivals != 300 || sum1.Completed != 300 {
		t.Fatalf("sharded campaign arrivals %d completed %d, want 300 each", sum1.Arrivals, sum1.Completed)
	}
}
