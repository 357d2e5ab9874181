package backend_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"fesplit/internal/backend"
	"fesplit/internal/frontend"
	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/obs"
	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
	"fesplit/internal/workload"
)

// TestZeroLoadDegeneracy pins the byte-identity contract of the service
// queue both servers own: a bounded cluster that never queues (sparse
// arrivals) must behave exactly like the unbounded one. The "be" row
// asks the data center directly (status, body, headers, completion
// instants); the "fe" row asks an FE in front of an unbounded data
// center, and adds the FE's static-flush instants, what it hands to
// OnFetch and the exported fe_*/be_* metric families.
func TestZeroLoadDegeneracy(t *testing.T) {
	for _, row := range []struct {
		name    string
		viaFE   bool
		bounded backend.Options // BE options of the bounded run
		workers int             // FE Workers of the bounded run
	}{
		{"be", false, backend.Options{Queue: backend.QueueOptions{
			Replicas: 4, Policy: backend.LeastOutstanding}}, 0},
		{"fe", true, backend.Options{}, 4},
	} {
		t.Run(row.name, func(t *testing.T) {
			unbounded := zeroLoadRun(t, row.viaFE, backend.Options{}, 0)
			bounded := zeroLoadRun(t, row.viaFE, row.bounded, row.workers)
			if len(unbounded) != len(bounded) || len(unbounded) < 5 {
				t.Fatalf("transcript lengths differ: %d vs %d", len(unbounded), len(bounded))
			}
			for i := range unbounded {
				if unbounded[i] != bounded[i] {
					t.Errorf("line %d diverged:\nunbounded %s\nbounded   %s", i, unbounded[i], bounded[i])
				}
			}
		})
	}
}

// zeroLoadRun sends five queries 500 ms apart, each from its own client
// host, to the data center or (viaFE) to an observed FE in front of it,
// and returns a transcript of what the clients and the FE saw.
func zeroLoadRun(t *testing.T, viaFE bool, opts backend.Options, workers int) []string {
	t.Helper()
	sim := simnet.New(3)
	n := simnet.NewNetwork(sim)
	spec := workload.DefaultContentSpec("svc")
	cost := workload.CostModel{Base: 70 * time.Millisecond, PerTerm: 5 * time.Millisecond, CV: 0.3}
	dc, err := backend.New(n, "be", geo.Site{Name: "test-be"}, spec, cost, opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	target, port := simnet.HostID("be"), uint16(backend.BEPort)
	var fe *frontend.Server
	var fetches []frontend.FetchRecord
	o := &obs.Observer{Reg: obs.NewRegistry()}
	if viaFE {
		fe, err = frontend.New(n, frontend.Config{
			Host: "fe", Site: geo.Site{Name: "test-fe"}, BEHost: "be",
			Static: spec.StaticPrefix(), Load: frontend.SharedCDNLoadModel(),
			Workers: workers, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.SetLink("fe", "be", simnet.PathParams{Delay: 10 * time.Millisecond})
		fe.OnFetch = func(fr frontend.FetchRecord) { fetches = append(fetches, fr) }
		fe.StartObserving(o)
		dc.StartObserving(o)
		target, port = "fe", frontend.FEPort
	}
	var out []string
	for i := 0; i < 5; i++ {
		host := simnet.HostID(fmt.Sprintf("c%d", i))
		n.SetLink(host, target, simnet.PathParams{Delay: 2 * time.Millisecond})
		ep := tcpsim.NewEndpoint(n, host, tcpsim.Config{})
		q := workload.Query{ID: i, Keywords: fmt.Sprintf("term%d query", i), Terms: 2, Rank: 999}
		// Spacing far above the service times: no queue ever waits.
		sim.ScheduleAt(time.Duration(i)*500*time.Millisecond, func() {
			httpsim.Get(ep, target, port, httpsim.NewGet("svc", q.Path()),
				httpsim.ResponseCallbacks{OnDone: func(r *httpsim.Response) {
					out = append(out, fmt.Sprintf("status=%d body=%d/%08x headers=%v done=%v",
						r.Status, len(r.Body), crc32.ChecksumIEEE(r.Body), r.Header, sim.Now()))
				}})
		})
	}
	sim.Run()
	if fe != nil {
		for _, rec := range fetches {
			out = append(out, fmt.Sprintf("%+v", rec))
		}
		var dump bytes.Buffer
		if err := obs.WriteMetricsJSONL(&dump, o.Reg); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(dump.String(), `"fe_static_flushes_total"`) {
			t.Fatalf("observed FE exported no fe_* family:\n%s", dump.String())
		}
		out = append(out, strings.Split(dump.String(), "\n")...)
	}
	return out
}
