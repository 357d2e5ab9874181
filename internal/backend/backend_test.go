package backend

import (
	"bytes"
	"testing"
	"time"

	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
	"fesplit/internal/workload"
)

func newRig(t *testing.T, cost workload.CostModel, opts Options) (*simnet.Sim, *tcpsim.Endpoint, *DataCenter) {
	t.Helper()
	sim := simnet.New(3)
	n := simnet.NewNetwork(sim)
	n.SetLink("c", "be", simnet.PathParams{Delay: 2 * time.Millisecond})
	dc, err := New(n, "be", geo.Site{Name: "test-be"}, workload.DefaultContentSpec("svc"),
		cost, opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	return sim, tcpsim.NewEndpoint(n, "c", tcpsim.Config{}), dc
}

func get(sim *simnet.Sim, ep *tcpsim.Endpoint, q workload.Query) (*httpsim.Response, time.Duration) {
	var resp *httpsim.Response
	start := sim.Now()
	var done time.Duration
	httpsim.Get(ep, "be", BEPort, httpsim.NewGet("svc", q.Path()), httpsim.ResponseCallbacks{
		OnDone: func(r *httpsim.Response) { resp = r; done = sim.Now() - start },
	})
	sim.Run()
	return resp, done
}

func TestProcessingDelayApplied(t *testing.T) {
	sim, ep, dc := newRig(t, workload.CostModel{Base: 150 * time.Millisecond}, Options{})
	q := workload.Query{ID: 1, Keywords: "alpha beta", Terms: 2, Rank: 999}
	resp, took := get(sim, ep, q)
	if resp == nil || resp.Status != 200 {
		t.Fatalf("resp = %+v", resp)
	}
	if took < 150*time.Millisecond {
		t.Fatalf("response in %v, before the 150ms processing time", took)
	}
	if dc.Served() != 1 {
		t.Fatalf("served = %d", dc.Served())
	}
	if dc.Host() != "be" || dc.Site().Name != "test-be" {
		t.Fatal("accessors broken")
	}
}

func TestDynamicOnlyByDefault(t *testing.T) {
	sim, ep, _ := newRig(t, workload.CostModel{Base: time.Millisecond}, Options{})
	q := workload.Query{ID: 2, Keywords: "gamma delta", Terms: 2, Rank: 999}
	resp, _ := get(sim, ep, q)
	static := workload.DefaultContentSpec("svc").StaticPrefix()
	if bytes.HasPrefix(resp.Body, static) {
		t.Fatal("default response should carry the dynamic portion only")
	}
	if !bytes.Contains(resp.Body, []byte("gamma delta")) {
		t.Fatal("dynamic body lacks keywords")
	}
}

func TestServeFullPage(t *testing.T) {
	sim, ep, _ := newRig(t, workload.CostModel{Base: time.Millisecond},
		Options{ServeFullPage: true})
	q := workload.Query{ID: 3, Keywords: "epsilon zeta", Terms: 2, Rank: 999}
	resp, _ := get(sim, ep, q)
	static := workload.DefaultContentSpec("svc").StaticPrefix()
	if !bytes.HasPrefix(resp.Body, static) {
		t.Fatal("full-page response must start with the static prefix")
	}
}

func TestResultCacheHitsAndSpeed(t *testing.T) {
	sim, ep, dc := newRig(t, workload.CostModel{Base: 200 * time.Millisecond},
		Options{CacheResults: true, CacheHitTime: time.Millisecond})
	q := workload.Query{ID: 4, Keywords: "eta theta", Terms: 2, Rank: 999}
	_, first := get(sim, ep, q)
	_, second := get(sim, ep, q)
	if dc.CacheHits() != 1 {
		t.Fatalf("hits = %d", dc.CacheHits())
	}
	if second >= first/2 {
		t.Fatalf("cache hit %v not much faster than miss %v", second, first)
	}
	// Cached bodies must be identical across hits (stable result).
	r1, _ := get(sim, ep, q)
	r2, _ := get(sim, ep, q)
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Fatal("cache returned differing bodies")
	}
}

func TestBadQueryPath400(t *testing.T) {
	sim, ep, dc := newRig(t, workload.CostModel{Base: time.Millisecond}, Options{})
	var status int
	httpsim.Get(ep, "be", BEPort, httpsim.NewGet("svc", "/not-a-search"),
		httpsim.ResponseCallbacks{OnDone: func(r *httpsim.Response) { status = r.Status }})
	sim.Run()
	if status != 400 {
		t.Fatalf("status = %d", status)
	}
	if dc.Served() != 0 {
		t.Fatal("bad request counted as served")
	}
}

func TestLoadAdvancesLazily(t *testing.T) {
	sim, ep, dc := newRig(t, workload.CostModel{
		Base: 50 * time.Millisecond, LoadAmplitude: 0.5, CV: 0,
	}, Options{})
	// Two queries far apart in time see different load states; with
	// CV=0 any difference in processing time comes from the AR(1).
	q := workload.Query{ID: 5, Keywords: "iota kappa", Terms: 2, Rank: 999}
	_, first := get(sim, ep, q)
	sim.RunFor(30 * time.Second)
	_, second := get(sim, ep, q)
	if first == second {
		t.Fatalf("load fluctuation had no effect: %v == %v", first, second)
	}
	_ = dc
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.CacheHitTime <= 0 {
		t.Fatalf("defaults = %+v", o)
	}
	// Explicit values survive.
	o2 := Options{CacheHitTime: time.Second}.withDefaults()
	if o2.CacheHitTime != time.Second {
		t.Fatalf("overrides lost: %+v", o2)
	}
}

func TestCustomTCPConfig(t *testing.T) {
	sim := simnet.New(4)
	n := simnet.NewNetwork(sim)
	dc, err := New(n, "be", geo.Site{}, workload.DefaultContentSpec("svc"),
		workload.CostModel{Base: time.Millisecond},
		Options{TCP: tcpsim.Config{InitialCwnd: 1, MSS: 500}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	_ = dc // construction with a custom TCP config must not error
}
