package frontend

import (
	"testing"
	"time"

	"fesplit/internal/backend"
	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
	"fesplit/internal/workload"
)

// raceEnabled is set by race_test.go when the race detector is compiled
// in: it allocates on its own account, so an exact allocation pin skips.
var raceEnabled bool

// TestServedQueryAllocPins pins what one warm client→FE→BE query costs:
// a recycling client endpoint, a length-only FE and BE on a pooled
// persistent connection, the emulator's counted Get — the exchange a
// timing cell's world runs per query. Connection objects, the HTTP
// exchange, the server's parser and writer, the FE's per-request state,
// the BE's reply and the queue jobs are all reused, so what is left is
// what crosses a layer as new bytes:
//
//   - the client's request head (1), kept by a capture;
//   - the FE's parsed path (1) and the request head it forwards (1);
//   - the BE's parsed path (1), the query's keywords (1) and its
//     Content-Length response head (1).
//
// Six allocations, exact at this seed. Update the pin only with a reason.
// Under the race detector the queries still run, unpinned.
func TestServedQueryAllocPins(t *testing.T) {
	sim := simnet.New(21)
	n := simnet.NewNetwork(sim)
	spec := workload.DefaultContentSpec("svc")
	if _, err := backend.New(n, "be", geo.Site{Name: "be"}, spec, backend.GoogleCostModel(),
		backend.Options{LengthOnly: true}, 1); err != nil {
		t.Fatal(err)
	}
	fe, err := New(n, Config{
		Host: "fe", Site: geo.Site{Name: "fe"}, BEHost: "be", Static: spec.StaticPrefix(),
		Load: DedicatedLoadModel(), LengthOnly: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.SetLink("client", "fe", simnet.PathParams{Delay: 20 * time.Millisecond})
	n.SetLink("fe", "be", simnet.PathParams{Delay: 15 * time.Millisecond})
	client := tcpsim.NewEndpoint(n, "client", tcpsim.Config{RecycleConns: true})
	fe.Prewarm(1)

	path := query().Path
	done, bodyLen := 0, 0
	cb := httpsim.ResponseCallbacks{CountOnly: true, OnDone: func(r *httpsim.Response) {
		done++
		bodyLen = r.BodyLen
	}}
	serve := func() {
		httpsim.Get(client, "fe", FEPort, httpsim.NewGet("svc", path), cb)
		sim.Run()
	}
	for i := 0; i < 4; i++ { // warm: every pool and free list filled
		serve()
	}
	const runs = 50
	allocs := testing.AllocsPerRun(runs, serve)
	if want := 4 + runs + 1; done != want || bodyLen <= len(spec.StaticPrefix()) {
		t.Fatalf("%d of %d queries done, last body %d bytes", done, want, bodyLen)
	}
	if raceEnabled {
		return
	}
	if allocs != 6 {
		t.Errorf("a warm served query allocates %v times, pinned 6", allocs)
	}
}
