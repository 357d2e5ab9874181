package frontend

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"fesplit/internal/backend"
	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/simnet"
	"fesplit/internal/stats"
	"fesplit/internal/tcpsim"
	"fesplit/internal/workload"
)

// rig builds client ↔ FE ↔ BE with the given path delays.
type rig struct {
	sim    *simnet.Sim
	net    *simnet.Network
	client *tcpsim.Endpoint
	fe     *Server
	be     *backend.DataCenter
	spec   workload.ContentSpec
	// fetches is what the FE handed to OnFetch, in hand-over order.
	fetches []FetchRecord
}

func newRig(t *testing.T, clientFE, feBE time.Duration, feCfg func(*Config)) *rig {
	t.Helper()
	sim := simnet.New(21)
	n := simnet.NewNetwork(sim)
	spec := workload.DefaultContentSpec("svc")
	cost := workload.CostModel{Base: 100 * time.Millisecond} // deterministic
	be, err := backend.New(n, "be", geo.Site{Name: "be"}, spec, cost, backend.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Host:   "fe",
		Site:   geo.Site{Name: "fe"},
		BEHost: "be",
		Static: spec.StaticPrefix(),
		Load:   LoadModel{Mean: 10 * time.Millisecond}, // deterministic (CV=0)
		Seed:   2,
	}
	if feCfg != nil {
		feCfg(&cfg)
	}
	fe, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.SetLink("client", "fe", simnet.PathParams{Delay: clientFE})
	n.SetLink("fe", "be", simnet.PathParams{Delay: feBE})
	r := &rig{
		sim:    sim,
		net:    n,
		client: tcpsim.NewEndpoint(n, "client", tcpsim.Config{}),
		fe:     fe,
		be:     be,
		spec:   spec,
	}
	fe.OnFetch = func(fr FetchRecord) { r.fetches = append(r.fetches, fr) }
	return r
}

func query() *httpsim.Request {
	q := workload.Query{ID: 1, Class: workload.ClassGranular,
		Keywords: "computer science department", Terms: 3, Rank: 500}
	return httpsim.NewGet("svc", q.Path())
}

func TestEndToEndResponseContent(t *testing.T) {
	r := newRig(t, 10*time.Millisecond, 5*time.Millisecond, nil)
	var resp *httpsim.Response
	httpsim.Get(r.client, "fe", FEPort, query(), httpsim.ResponseCallbacks{
		OnDone: func(rr *httpsim.Response) { resp = rr },
	})
	r.sim.Run()
	if resp == nil {
		t.Fatal("no response")
	}
	static := r.spec.StaticPrefix()
	if !bytes.HasPrefix(resp.Body, static) {
		t.Fatal("response does not start with the cached static prefix")
	}
	dyn := resp.Body[len(static):]
	if !bytes.Contains(dyn, []byte("computer science department")) {
		t.Fatal("dynamic portion lacks the query keywords")
	}
	if r.fe.Served() != 1 || r.be.Served() != 1 {
		t.Fatalf("served: fe=%d be=%d", r.fe.Served(), r.be.Served())
	}
}

func TestStaticArrivesBeforeDynamic(t *testing.T) {
	// FE delay 10ms, BE processing 100ms: the static prefix must reach
	// the client long before the dynamic portion.
	r := newRig(t, 5*time.Millisecond, 5*time.Millisecond, nil)
	staticLen := len(r.spec.StaticPrefix())
	var staticDoneAt, dynamicStartAt time.Duration
	received := 0
	httpsim.Get(r.client, "fe", FEPort, query(), httpsim.ResponseCallbacks{
		OnBody: func(b []byte) {
			before := received
			received += len(b)
			if before < staticLen && received >= staticLen {
				staticDoneAt = r.sim.Now()
			}
			if before >= staticLen && dynamicStartAt == 0 {
				dynamicStartAt = r.sim.Now()
			}
		},
	})
	r.sim.Run()
	if staticDoneAt == 0 || dynamicStartAt == 0 {
		t.Fatalf("static@%v dynamic@%v received=%d", staticDoneAt, dynamicStartAt, received)
	}
	if gap := dynamicStartAt - staticDoneAt; gap < 50*time.Millisecond {
		t.Fatalf("static/dynamic gap = %v, want ≥50ms (fetch-dominated)", gap)
	}
}

// fetchTimes is the FE's ground truth: the fetch time of every
// handed-over request whose BE fetch completed, in hand-over order.
func fetchTimes(r *rig) []time.Duration {
	var out []time.Duration
	for _, fr := range r.fetches {
		if fr.FetchDone > 0 {
			out = append(out, fr.FetchDone-fr.Arrived)
		}
	}
	return out
}

func TestFetchTimeGroundTruth(t *testing.T) {
	feBE := 20 * time.Millisecond
	r := newRig(t, 5*time.Millisecond, feBE, nil)
	httpsim.Get(r.client, "fe", FEPort, query(), httpsim.ResponseCallbacks{})
	r.sim.Run()
	fts := fetchTimes(r)
	if len(fts) != 1 {
		t.Fatalf("fetch samples = %d", len(fts))
	}
	// Tfetch = Tproc (100ms) + C·RTTbe. RTTbe = 40ms; the 20 KB dynamic
	// body needs ~2 BE window rounds at IW=10, so expect roughly
	// 100ms + 1..3 RTTbe.
	lo := 100*time.Millisecond + feBE*2
	hi := 100*time.Millisecond + feBE*8
	if fts[0] < lo || fts[0] > hi {
		t.Fatalf("Tfetch = %v, want in [%v, %v]", fts[0], lo, hi)
	}
}

func TestPersistentConnsReused(t *testing.T) {
	r := newRig(t, 5*time.Millisecond, 10*time.Millisecond, func(c *Config) {})
	for i := 0; i < 5; i++ {
		i := i
		r.sim.Schedule(time.Duration(i)*2*time.Second, func() {
			httpsim.Get(r.client, "fe", FEPort, query(), httpsim.ResponseCallbacks{})
		})
	}
	r.sim.Run()
	if r.fe.Served() != 5 {
		t.Fatalf("served = %d", r.fe.Served())
	}
	// Sequential queries reuse one pooled connection.
	if got := r.fe.DialedBEConns(); got != 1 {
		t.Fatalf("dialed %d BE conns, want 1 (pooled)", got)
	}
}

func TestSplitTCPDisabledDialsPerQuery(t *testing.T) {
	r := newRig(t, 5*time.Millisecond, 10*time.Millisecond, func(c *Config) {
		c.DisableSplitTCP = true
	})
	for i := 0; i < 4; i++ {
		i := i
		r.sim.Schedule(time.Duration(i)*2*time.Second, func() {
			httpsim.Get(r.client, "fe", FEPort, query(), httpsim.ResponseCallbacks{})
		})
	}
	r.sim.Run()
	if got := r.fe.DialedBEConns(); got != 4 {
		t.Fatalf("dialed %d BE conns, want 4 (no split TCP)", got)
	}
}

func TestSplitTCPFetchFasterThanColdDial(t *testing.T) {
	// With a 30ms FE-BE one-way delay, the persistent (pre-warmed,
	// large-window) connection should beat the cold dial by at least a
	// handshake.
	fetch := func(disable bool) time.Duration {
		r := newRig(t, 5*time.Millisecond, 30*time.Millisecond, func(c *Config) {
			c.DisableSplitTCP = disable
		})
		if !disable {
			r.fe.Prewarm(1)
			r.sim.RunFor(time.Second) // let prewarm handshake settle
		}
		httpsim.Get(r.client, "fe", FEPort, query(), httpsim.ResponseCallbacks{})
		r.sim.Run()
		fts := fetchTimes(r)
		if len(fts) != 1 {
			t.Fatalf("fetch samples = %d", len(fts))
		}
		return fts[0]
	}
	warm, cold := fetch(false), fetch(true)
	if warm >= cold {
		t.Fatalf("split-TCP fetch (%v) not faster than cold dial (%v)", warm, cold)
	}
	if cold-warm < 50*time.Millisecond {
		t.Fatalf("split-TCP advantage only %v, want ≥ handshake RTT", cold-warm)
	}
}

func TestConcurrentQueriesDontHeadOfLineBlock(t *testing.T) {
	// Two clients query the same FE simultaneously; the pool must give
	// each its own BE connection rather than queueing.
	sim := simnet.New(5)
	n := simnet.NewNetwork(sim)
	spec := workload.DefaultContentSpec("svc")
	cost := workload.CostModel{Base: 200 * time.Millisecond}
	if _, err := backend.New(n, "be", geo.Site{}, spec, cost, backend.Options{}, 1); err != nil {
		t.Fatal(err)
	}
	fe, err := New(n, Config{Host: "fe", BEHost: "be", Static: spec.StaticPrefix(),
		Load: LoadModel{Mean: 5 * time.Millisecond}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n.SetLink("fe", "be", simnet.PathParams{Delay: 10 * time.Millisecond})
	var doneTimes []time.Duration
	for _, cl := range []simnet.HostID{"c1", "c2"} {
		n.SetLink(cl, "fe", simnet.PathParams{Delay: 5 * time.Millisecond})
		ep := tcpsim.NewEndpoint(n, cl, tcpsim.Config{})
		httpsim.Get(ep, "fe", FEPort, query(), httpsim.ResponseCallbacks{
			OnDone: func(*httpsim.Response) { doneTimes = append(doneTimes, sim.Now()) },
		})
	}
	sim.Run()
	if len(doneTimes) != 2 {
		t.Fatalf("completions = %d", len(doneTimes))
	}
	// Serialized queries would differ by ~Tproc (200ms); parallel ones
	// complete within a few tens of ms of each other.
	gap := doneTimes[1] - doneTimes[0]
	if gap < 0 {
		gap = -gap
	}
	if gap > 100*time.Millisecond {
		t.Fatalf("completion gap %v suggests head-of-line blocking", gap)
	}
	if fe.DialedBEConns() < 2 {
		t.Fatalf("dialed %d conns for 2 concurrent queries", fe.DialedBEConns())
	}
}

func TestLoadModelSampling(t *testing.T) {
	m := LoadModel{Mean: 30 * time.Millisecond, CV: 0.5}
	rng := stats.NewRand(4)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = float64(m.Sample(0, rng))
	}
	mean := time.Duration(stats.Mean(xs))
	if mean < 27*time.Millisecond || mean > 33*time.Millisecond {
		t.Fatalf("mean = %v", mean)
	}
	// Deterministic when CV = 0.
	d := LoadModel{Mean: 10 * time.Millisecond}
	if d.Sample(0, rng) != 10*time.Millisecond {
		t.Fatal("CV=0 sample not deterministic")
	}
	// Load shifts the mean when Amplitude > 0.
	amp := LoadModel{Mean: 10 * time.Millisecond, Amplitude: 0.5}
	if amp.Sample(1, rng) <= amp.Sample(0, rng) {
		t.Fatal("load did not increase delay")
	}
	// Floor.
	tiny := LoadModel{Mean: time.Nanosecond}
	if tiny.Sample(-5, rng) < 100*time.Microsecond {
		t.Fatal("sample under floor")
	}
}

func TestSharedVsDedicatedLoadModels(t *testing.T) {
	shared, dedicated := SharedCDNLoadModel(), DedicatedLoadModel()
	if shared.Mean <= dedicated.Mean {
		t.Fatal("shared CDN should be slower on average")
	}
	if shared.CV <= dedicated.CV {
		t.Fatal("shared CDN should be more variable")
	}
}

func TestBackendResultCache(t *testing.T) {
	sim := simnet.New(9)
	n := simnet.NewNetwork(sim)
	spec := workload.DefaultContentSpec("svc")
	cost := workload.CostModel{Base: 300 * time.Millisecond}
	be, err := backend.New(n, "be", geo.Site{}, spec, cost,
		backend.Options{CacheResults: true, CacheHitTime: time.Millisecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	n.SetLink("c", "be", simnet.PathParams{Delay: time.Millisecond})
	ep := tcpsim.NewEndpoint(n, "c", tcpsim.Config{})
	var times []time.Duration
	issue := func(at time.Duration) {
		sim.Schedule(at, func() {
			start := sim.Now()
			httpsim.Get(ep, "be", backend.BEPort, query(), httpsim.ResponseCallbacks{
				OnDone: func(*httpsim.Response) { times = append(times, sim.Now()-start) },
			})
		})
	}
	issue(0)
	issue(2 * time.Second)
	sim.Run()
	if len(times) != 2 {
		t.Fatalf("responses = %d", len(times))
	}
	if be.CacheHits() != 1 {
		t.Fatalf("cache hits = %d", be.CacheHits())
	}
	if times[1] >= times[0]/2 {
		t.Fatalf("cache hit (%v) not much faster than miss (%v)", times[1], times[0])
	}
}

func TestBackendRejectsBadPath(t *testing.T) {
	sim := simnet.New(10)
	n := simnet.NewNetwork(sim)
	spec := workload.DefaultContentSpec("svc")
	if _, err := backend.New(n, "be", geo.Site{}, spec,
		workload.CostModel{Base: 10 * time.Millisecond}, backend.Options{}, 1); err != nil {
		t.Fatal(err)
	}
	n.SetLink("c", "be", simnet.PathParams{Delay: time.Millisecond})
	ep := tcpsim.NewEndpoint(n, "c", tcpsim.Config{})
	var status int
	httpsim.Get(ep, "be", backend.BEPort, httpsim.NewGet("h", "/nonsense"), httpsim.ResponseCallbacks{
		OnDone: func(r *httpsim.Response) { status = r.Status },
	})
	sim.Run()
	if status != 400 {
		t.Fatalf("status = %d, want 400", status)
	}
}

func TestCostModelsCalibration(t *testing.T) {
	b, g := backend.BingCostModel(), backend.GoogleCostModel()
	if b.Base <= g.Base*4 {
		t.Fatalf("Bing base %v should dwarf Google base %v", b.Base, g.Base)
	}
	if b.CV <= g.CV {
		t.Fatal("Bing should be more variable")
	}
}

func TestBackendWorkerPoolQueues(t *testing.T) {
	sim := simnet.New(31)
	n := simnet.NewNetwork(sim)
	spec := workload.DefaultContentSpec("svc")
	be, err := backend.New(n, "be", geo.Site{}, spec,
		workload.CostModel{Base: 100 * time.Millisecond},
		backend.Options{Queue: backend.QueueOptions{Replicas: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	n.SetLink("c", "be", simnet.PathParams{Delay: time.Millisecond})
	ep := tcpsim.NewEndpoint(n, "c", tcpsim.Config{})
	var done []time.Duration
	for i := 0; i < 3; i++ {
		q := workload.Query{ID: i + 1, Keywords: "q", Terms: 1, Rank: 999}
		start := sim.Now()
		httpsim.Get(ep, "be", backend.BEPort, httpsim.NewGet("svc", q.Path()),
			httpsim.ResponseCallbacks{
				OnDone: func(*httpsim.Response) { done = append(done, sim.Now()-start) },
			})
	}
	sim.Run()
	if len(done) != 3 {
		t.Fatalf("completions = %d", len(done))
	}
	// Single worker, 100ms each: completions ≈ 100/200/300ms.
	if done[1] < 190*time.Millisecond || done[2] < 290*time.Millisecond {
		t.Fatalf("no queueing with Workers=1: %v", done)
	}
	if be.MaxQueueLen() < 1 {
		t.Fatalf("max queue = %d", be.MaxQueueLen())
	}

	// Unlimited workers: all three finish ≈ together.
	sim2 := simnet.New(32)
	n2 := simnet.NewNetwork(sim2)
	if _, err := backend.New(n2, "be", geo.Site{}, spec,
		workload.CostModel{Base: 100 * time.Millisecond}, backend.Options{}, 1); err != nil {
		t.Fatal(err)
	}
	n2.SetLink("c", "be", simnet.PathParams{Delay: time.Millisecond})
	ep2 := tcpsim.NewEndpoint(n2, "c", tcpsim.Config{})
	var done2 []time.Duration
	for i := 0; i < 3; i++ {
		q := workload.Query{ID: i + 1, Keywords: "q", Terms: 1, Rank: 999}
		start := sim2.Now()
		httpsim.Get(ep2, "be", backend.BEPort, httpsim.NewGet("svc", q.Path()),
			httpsim.ResponseCallbacks{
				OnDone: func(*httpsim.Response) { done2 = append(done2, sim2.Now()-start) },
			})
	}
	sim2.Run()
	if done2[2] > 150*time.Millisecond {
		t.Fatalf("unbounded pool queued: %v", done2)
	}
}

func TestFrontendWorkerPoolInflatesTstatic(t *testing.T) {
	// One FE worker, three concurrent clients: the third client's
	// static flush waits ~2 service times.
	sim := simnet.New(33)
	n := simnet.NewNetwork(sim)
	spec := workload.DefaultContentSpec("svc")
	if _, err := backend.New(n, "be", geo.Site{}, spec,
		workload.CostModel{Base: 50 * time.Millisecond}, backend.Options{}, 1); err != nil {
		t.Fatal(err)
	}
	fe, err := New(n, Config{
		Host: "fe", BEHost: "be", Static: spec.StaticPrefix(),
		Load: LoadModel{Mean: 30 * time.Millisecond}, Workers: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.SetLink("fe", "be", simnet.PathParams{Delay: 2 * time.Millisecond})
	var firstByte []time.Duration
	for i := 0; i < 3; i++ {
		cl := simnet.HostID(fmt.Sprintf("c%d", i))
		n.SetLink(cl, "fe", simnet.PathParams{Delay: time.Millisecond})
		ep := tcpsim.NewEndpoint(n, cl, tcpsim.Config{})
		q := workload.Query{ID: i + 1, Keywords: "load test", Terms: 2, Rank: 999}
		start := sim.Now()
		got := false
		httpsim.Get(ep, "fe", FEPort, httpsim.NewGet("svc", q.Path()),
			httpsim.ResponseCallbacks{
				OnBody: func([]byte) {
					if !got {
						got = true
						firstByte = append(firstByte, sim.Now()-start)
					}
				},
			})
	}
	sim.Run()
	if len(firstByte) != 3 {
		t.Fatalf("first bytes = %d", len(firstByte))
	}
	// Service time 30ms each; the last static flush waits ≥ 60ms more
	// than the first.
	var lo, hi time.Duration = firstByte[0], firstByte[0]
	for _, d := range firstByte {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi-lo < 50*time.Millisecond {
		t.Fatalf("FE queueing not visible: first-byte times %v", firstByte)
	}
	if got := fe.queue.MaxQueueLen(); got < 1 {
		t.Fatalf("max queue = %d", got)
	}
}

func TestGzipRoundTrip(t *testing.T) {
	data := []byte("hello hello hello compressible world world world")
	z := GzipMember(data)
	if len(z) == 0 {
		t.Fatal("empty gzip output")
	}
	out, err := GunzipAll(z)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("round trip = %q", out)
	}
	// Determinism: equal inputs → equal compressed bytes.
	if !bytes.Equal(GzipMember(data), z) {
		t.Fatal("gzip output nondeterministic")
	}
	// Multi-member concatenation decompresses to concatenated output.
	joined := append(append([]byte{}, GzipMember([]byte("AAA"))...), GzipMember([]byte("BBB"))...)
	out, err = GunzipAll(joined)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "AAABBB" {
		t.Fatalf("multi-member = %q", out)
	}
}

func TestGzipFrontEndServesCompressed(t *testing.T) {
	r := newRig(t, 10*time.Millisecond, 5*time.Millisecond, func(c *Config) {
		c.Gzip = true
	})
	var resp *httpsim.Response
	httpsim.Get(r.client, "fe", FEPort, query(), httpsim.ResponseCallbacks{
		OnDone: func(rr *httpsim.Response) { resp = rr },
	})
	r.sim.Run()
	if resp == nil {
		t.Fatal("no response")
	}
	static := r.spec.StaticPrefix()
	// Wire bytes are compressed and markedly smaller than the page.
	if bytes.HasPrefix(resp.Body, static) {
		t.Fatal("gzip response served uncompressed")
	}
	full, err := GunzipAll(resp.Body)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.HasPrefix(full, static) {
		t.Fatal("decompressed page lacks static prefix")
	}
	if !bytes.Contains(full, []byte("computer science department")) {
		t.Fatal("decompressed page lacks keywords")
	}
	if len(resp.Body) >= len(full) {
		t.Fatalf("no compression gain: %d wire vs %d page", len(resp.Body), len(full))
	}
	// The compressed static member is the wire prefix: content
	// analysis on compressed bytes still finds the boundary.
	zstatic := GzipMember(static)
	if !bytes.HasPrefix(resp.Body, zstatic) {
		t.Fatal("compressed static prefix not stable on the wire")
	}
}

func TestGzipContentAnalysisStillWorks(t *testing.T) {
	// Distinct queries over a gzip FE: the LCP over compressed wire
	// payloads equals the compressed static member length.
	r := newRig(t, 5*time.Millisecond, 5*time.Millisecond, func(c *Config) {
		c.Gzip = true
	})
	zstaticLen := len(GzipMember(r.spec.StaticPrefix()))
	var bodies [][]byte
	for i, kw := range []string{"alpha beta", "gamma delta epsilon"} {
		q := workload.Query{ID: 10 + i, Keywords: kw,
			Terms: i + 2, Rank: 999}
		r.sim.Schedule(time.Duration(i)*2*time.Second, func() {
			httpsim.Get(r.client, "fe", FEPort, httpsim.NewGet("svc", q.Path()),
				httpsim.ResponseCallbacks{
					OnDone: func(resp *httpsim.Response) { bodies = append(bodies, resp.Body) },
				})
		})
	}
	r.sim.Run()
	if len(bodies) != 2 {
		t.Fatalf("bodies = %d", len(bodies))
	}
	lcp := 0
	for lcp < len(bodies[0]) && lcp < len(bodies[1]) && bodies[0][lcp] == bodies[1][lcp] {
		lcp++
	}
	if lcp < zstaticLen || lcp > zstaticLen+32 {
		t.Fatalf("compressed LCP = %d, want ≈ compressed static %d", lcp, zstaticLen)
	}
}

func TestBEOutageGracefulStaticOnly(t *testing.T) {
	// The back-end becomes unreachable mid-run: the FE must still
	// deliver the cached static portion and terminate the response
	// (the split design degrades, not hangs).
	r := newRig(t, 5*time.Millisecond, 10*time.Millisecond, nil)
	// First query succeeds and warms the pool.
	httpsim.Get(r.client, "fe", FEPort, query(), httpsim.ResponseCallbacks{})
	r.sim.Run()

	// Outage: all FE→BE packets vanish from now on.
	r.net.SetLink("fe", "be", simnet.PathParams{Delay: 10 * time.Millisecond, LossRate: 1})
	var resp *httpsim.Response
	r.sim.Schedule(time.Second, func() {
		httpsim.Get(r.client, "fe", FEPort, query(), httpsim.ResponseCallbacks{
			OnDone: func(rr *httpsim.Response) { resp = rr },
		})
	})
	r.sim.Run() // must terminate: bounded retransmissions end the BE conn
	if resp == nil {
		t.Fatal("no response during BE outage")
	}
	static := r.spec.StaticPrefix()
	if !bytes.Equal(resp.Body, static) {
		t.Fatalf("outage response = %d bytes, want static-only %d", len(resp.Body), len(static))
	}
}
