package main

import (
	"fmt"
	"time"

	"fesplit/internal/backend"
	"fesplit/internal/cdn"
	"fesplit/internal/emulator"
	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/simnet"
	"fesplit/internal/stats"
	"fesplit/internal/tcpsim"
	"fesplit/internal/trace"
	"fesplit/internal/vantage"
	wl "fesplit/internal/workload"
)

// Isolated kernel probes (source K): each times one public function of
// one layer on inputs generated from the run's seed, away from the rest
// of the stack, so a layer's own cost can be read without the workload
// around it.

// probeBatch is how long one timed batch of a kernel probe lasts (the
// self-tests shorten it).
var probeBatch = 20 * time.Millisecond

// nsPerOp calls batch(n) with growing n until one call lasts
// probeBatch, then reports the median ns per operation of five such
// batches.
func nsPerOp(batch func(n int)) float64 {
	n := 64
	for {
		t0 := time.Now()
		batch(n)
		if d := time.Since(t0); d >= probeBatch || n >= 1<<24 {
			break
		}
		n *= 2
	}
	per := make([]float64, 5)
	for i := range per {
		t0 := time.Now()
		batch(n)
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// bulkSegments is the data segments of one 200 KiB transfer at the
// default 1460-byte MSS.
const (
	bulkBytes    = 200 << 10
	bulkSegments = (bulkBytes + 1459) / 1460
)

// bulkTransfer runs one 200 KiB server→client transfer over a 30 ms
// path and fails on a short delivery.
func bulkTransfer(seed int64, loss float64) error {
	sim := simnet.New(seed)
	n := simnet.NewNetwork(sim)
	n.SetLink("c", "s", simnet.PathParams{Delay: 30 * time.Millisecond, LossRate: loss})
	client := tcpsim.NewEndpoint(n, "c", tcpsim.Config{})
	server := tcpsim.NewEndpoint(n, "s", tcpsim.Config{})
	payload := make([]byte, bulkBytes)
	if _, err := server.Listen(80, func(c *tcpsim.Conn) {
		c.Send(payload)
		c.Close()
	}); err != nil {
		return err
	}
	got := 0
	conn := client.Dial("s", 80)
	conn.OnData = func(d []byte) { got += len(d) }
	conn.OnClose = func() { conn.Close() }
	sim.Run()
	if got != bulkBytes {
		return fmt.Errorf("bulk transfer delivered %d of %d bytes", got, bulkBytes)
	}
	return nil
}

// kernelProbes runs every probe and returns the K metrics plus
// workload.body_bytes_per_query, which falls out of the same corpus.
func kernelProbes(seed int64, snapped bool) (map[string]float64, error) {
	out := map[string]float64{}
	var probeErr error
	fail := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}

	// simnet: one Schedule + one Step per operation.
	out["simnet.event_ns"] = nsPerOp(func(n int) {
		s := simnet.New(seed)
		remaining := n
		var fn func()
		fn = func() {
			if remaining > 0 {
				remaining--
				s.Schedule(time.Microsecond, fn)
			}
		}
		s.Schedule(0, fn)
		s.Run()
	})
	out["simnet.send_ns"] = nsPerOp(func(n int) {
		s := simnet.New(seed)
		net := simnet.NewNetwork(s)
		net.Attach("dst", simnet.HandlerFunc(func(simnet.Packet) {}))
		net.SetPath("src", "dst", simnet.PathParams{Delay: time.Millisecond})
		for i := 0; i < n; i++ {
			net.Send(simnet.Packet{From: "src", To: "dst", Size: 1460})
			if i%1024 == 0 {
				s.Run() // drain periodically to bound the heap
			}
		}
		s.Run()
	})

	// tcpsim: a loss-free 200 KiB transfer rides the fast lane; at 3 %
	// loss it alternates lane epochs with per-packet recovery.
	for name, loss := range map[string]float64{"tcpsim.bulk_ns_per_segment": 0, "tcpsim.lossy_ns_per_segment": 0.03} {
		loss := loss
		out[name] = nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				fail(bulkTransfer(seed+int64(i), loss))
			}
		}) / bulkSegments
	}

	// workload: the result page of each corpus query.
	spec := wl.DefaultContentSpec("google-like")
	corpus := wl.NewGenerator(seed).Corpus(64, wl.ClassGranular)
	rng := stats.NewRand(seed)
	bodyBytes := 0
	for _, q := range corpus {
		bodyBytes += len(spec.DynamicBody(q, rng))
	}
	out["workload.body_bytes_per_query"] = float64(bodyBytes) / float64(len(corpus))
	out["workload.body_ns"] = nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			_ = spec.DynamicBody(corpus[i%len(corpus)], rng)
		}
	})

	// httpsim: one GET of a mean-sized body over a zero-delay link.
	body := make([]byte, bodyBytes/len(corpus))
	{
		req := httpsim.NewGet("s", "/search?q=probe")
		out["httpsim.get_ns"] = nsPerOp(func(n int) {
			s := simnet.New(seed)
			net := simnet.NewNetwork(s)
			net.SetLink("c", "s", simnet.PathParams{})
			cep := tcpsim.NewEndpoint(net, "c", tcpsim.Config{})
			sep := tcpsim.NewEndpoint(net, "s", tcpsim.Config{})
			if _, err := httpsim.NewServer(sep, 80, func(w *httpsim.ResponseWriter, r *httpsim.Request) {
				w.WriteHeader(200, httpsim.ContentLengthHeader(len(body)))
				w.Write(body)
				w.End()
			}); err != nil {
				fail(err)
				return
			}
			for i := 0; i < n; i++ {
				got := 0
				httpsim.Get(cep, "s", 80, req, httpsim.ResponseCallbacks{
					OnDone: func(r *httpsim.Response) { got = len(r.Body) },
				})
				s.Run()
				if got != len(body) {
					fail(fmt.Errorf("httpsim probe: body %d of %d bytes", got, len(body)))
					return
				}
			}
		})
	}

	// backend: Cluster.Submit on a four-replica queueing cluster.
	{
		s := simnet.New(seed)
		net := simnet.NewNetwork(s)
		dc, err := backend.New(net, "be", geo.Site{Name: "be"}, spec, backend.GoogleCostModel(),
			backend.Options{Queue: backend.QueueOptions{Replicas: 4}}, seed)
		fail(err)
		if err == nil {
			cl := dc.Cluster()
			done := func(time.Duration) {}
			out["backend.submit_ns"] = nsPerOp(func(n int) {
				for i := 0; i < n; i++ {
					cl.Submit(time.Millisecond, done)
					if i%1024 == 0 {
						s.Run()
					}
				}
				s.Run()
			})
		}
	}

	// trace: Parse replayed over the sessions of a small campaign,
	// captured the way the workload captures (snapped or full payload).
	{
		r, err := emulator.New(seed+301, cdn.GoogleLike(seed+2), emulator.Options{
			Nodes: 8, FleetSeed: seed + 302, SnapPayloads: snapped,
		})
		fail(err)
		if err == nil {
			ds := r.RunExperimentA(emulator.AOptions{QueriesPerNode: 4, Interval: 2 * time.Second, QuerySeed: seed + 303})
			recs := ds.Records
			out["trace.parse_ns"] = nsPerOp(func(n int) {
				for i := 0; i < n; i++ {
					rec := &recs[i%len(recs)]
					if _, err := trace.Parse(rec.Key, rec.Events); err != nil {
						fail(err)
						return
					}
				}
			})
		}
	}

	// stats: one Sketch.Add per operation on delay-like values.
	{
		vals := make([]float64, 4096)
		for i := range vals {
			vals[i] = 5 + 500*rng.Float64()
		}
		sk := stats.NewSketch(0)
		out["stats.sketch_add_ns"] = nsPerOp(func(n int) {
			for i := 0; i < n; i++ {
				sk.Add(vals[i%len(vals)])
			}
		})
	}
	return out, probeErr
}

// nopSink discards fleet records.
type nopSink struct{}

func (nopSink) Consume(*emulator.Record) {}

// buildProbes times world construction at the workload's population:
// cdn.build_s is emulator.New (NewFleetRunner on fleet-diurnal)
// inclusive, vantage.fleet_s is NewFleet + Wire on a built deployment.
func buildProbes(seed int64, name string, sc *scale) (map[string]float64, error) {
	nodes := map[string]int{wPaperCore: sc.PaperNodes, wLossy: sc.LossyNodes, wObserved: observedConfig(&repCtx{seed: seed, sc: sc}).Nodes}[name]
	cfg := cdn.GoogleLike(seed + 2)
	out := map[string]float64{}
	t0 := time.Now()
	if name == wFleet {
		nodes = 250 // the materialised fleet the pooled driver replaces
		_, err := emulator.NewFleetRunner(seed+311, cfg, emulator.FleetOptions{
			Clients: sc.FleetClients, Curve: emulator.DefaultDiurnalCurve(sc.FleetHorizon, 100),
			FleetSeed: seed + 312, Sink: nopSink{},
		})
		if err != nil {
			return nil, err
		}
	} else if _, err := emulator.New(seed+311, cfg, emulator.Options{Nodes: nodes, FleetSeed: seed + 312}); err != nil {
		return nil, err
	}
	out["cdn.build_s"] = time.Since(t0).Seconds()

	net := simnet.NewNetwork(simnet.New(seed + 313))
	dep, err := cdn.Build(net, cfg)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	vantage.NewFleet(nodes, geo.WorldMetros(), vantage.CampusProfile(), seed+312).Wire(dep)
	out["vantage.fleet_s"] = time.Since(t0).Seconds()
	return out, nil
}
