package frontend

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"fesplit/internal/backend"
	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/obs"
	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
	"fesplit/internal/workload"
)

// poolRig builds client(s) ↔ FE ↔ BE with configurable BE options (for
// the cluster queue model) and FE pool config.
type poolRig struct {
	sim    *simnet.Sim
	net    *simnet.Network
	fe     *Server
	be     *backend.DataCenter
	static []byte
}

func newPoolRig(t *testing.T, beOpts backend.Options, pool PoolConfig) *poolRig {
	t.Helper()
	sim := simnet.New(21)
	n := simnet.NewNetwork(sim)
	spec := workload.DefaultContentSpec("svc")
	cost := workload.CostModel{Base: 80 * time.Millisecond} // deterministic
	be, err := backend.New(n, "be", geo.Site{Name: "be"}, spec, cost, beOpts, 1)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := New(n, Config{
		Host:   "fe",
		Site:   geo.Site{Name: "fe"},
		BEHost: "be",
		Static: spec.StaticPrefix(),
		Load:   LoadModel{Mean: 5 * time.Millisecond}, // deterministic (CV=0)
		Seed:   2,
		BEPool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.SetLink("fe", "be", simnet.PathParams{Delay: 3 * time.Millisecond})
	fe.StartObserving(&obs.Observer{Reg: obs.NewRegistry()})
	return &poolRig{sim: sim, net: n, fe: fe, be: be, static: spec.StaticPrefix()}
}

// maxWaiters is the deepest the FE's BE-pool wait queue has been
// (fe_pool_wait_depth's maximum).
func (r *poolRig) maxWaiters() int { return int(r.fe.met.poolWait.Max()) }

// client wires a fresh client host to the FE and returns its endpoint.
func (r *poolRig) client(i int) *tcpsim.Endpoint {
	host := simnet.HostID(fmt.Sprintf("client%d", i))
	r.net.SetLink(host, "fe", simnet.PathParams{Delay: 2 * time.Millisecond})
	return tcpsim.NewEndpoint(r.net, host, tcpsim.Config{})
}

func poolQuery(id int) *httpsim.Request {
	q := workload.Query{ID: id, Class: workload.ClassGranular,
		Keywords: "computer science department", Terms: 3, Rank: 500}
	return httpsim.NewGet("svc", q.Path())
}

// TestPoolExhaustionSerializesFetches pins the bounded pool: with one
// BE connection slot and three concurrent requests, fetches serialize
// (each waits for the slot), every request still completes with the
// full page, and the pool-wait gauge saw the queue.
func TestPoolExhaustionSerializesFetches(t *testing.T) {
	r := newPoolRig(t, backend.Options{}, PoolConfig{MaxConns: 1})
	var dones []time.Duration
	for i := 0; i < 3; i++ {
		ep := r.client(i)
		req := poolQuery(i)
		r.sim.ScheduleAt(0, func() {
			httpsim.Get(ep, "fe", FEPort, req, httpsim.ResponseCallbacks{
				OnDone: func(resp *httpsim.Response) {
					if resp.Status != 200 {
						t.Errorf("status %d", resp.Status)
					}
					if len(resp.Body) <= len(r.static) {
						t.Errorf("body %d bytes — degraded, want full page", len(resp.Body))
					}
					dones = append(dones, r.sim.Now())
				},
			})
		})
	}
	r.sim.Run()
	if len(dones) != 3 {
		t.Fatalf("%d responses, want 3", len(dones))
	}
	if r.maxWaiters() < 2 {
		t.Errorf("max pool waiters = %d, want ≥ 2", r.maxWaiters())
	}
	if r.fe.beInflight != 0 {
		t.Errorf("pool not drained: inflight %d", r.fe.beInflight)
	}
	// Three 80 ms fetches through one slot cannot finish faster than
	// 240 ms of BE service time.
	if last := dones[len(dones)-1]; last < 240*time.Millisecond {
		t.Errorf("last response at %v — fetches did not serialize", last)
	}
}

// TestAdmissionControlRejects pins the 503 path: with the pool slot
// and wait queue both full, further requests are refused outright with
// a distinguishable empty 503 — before any static flush.
func TestAdmissionControlRejects(t *testing.T) {
	r := newPoolRig(t, backend.Options{}, PoolConfig{MaxConns: 1, QueueCap: 1})
	var ok, rejected int
	for i := 0; i < 5; i++ {
		ep := r.client(i)
		req := poolQuery(i)
		r.sim.ScheduleAt(0, func() {
			httpsim.Get(ep, "fe", FEPort, req, httpsim.ResponseCallbacks{
				OnDone: func(resp *httpsim.Response) {
					switch resp.Status {
					case 200:
						ok++
					case 503:
						rejected++
						if len(resp.Body) != 0 {
							t.Errorf("503 carried %d body bytes", len(resp.Body))
						}
					default:
						t.Errorf("status %d", resp.Status)
					}
				},
			})
		})
	}
	r.sim.Run()
	if ok+rejected != 5 {
		t.Fatalf("ok %d + rejected %d != 5 offered", ok, rejected)
	}
	if rejected == 0 {
		t.Fatal("full pool rejected nothing")
	}
	if r.fe.Rejected() != rejected {
		t.Errorf("fe.Rejected() = %d, clients saw %d", r.fe.Rejected(), rejected)
	}
	if r.maxWaiters() > 1 {
		t.Errorf("pool wait queue reached %d, cap 1", r.maxWaiters())
	}
}

// TestRetryBackoffRecovers pins the FE's 503 retry: the BE cluster's
// queue is pre-filled to its cap so the FE's first fetch attempt is
// rejected, and the retry — after the configured backoff — succeeds
// once the queue drains.
func TestRetryBackoffRecovers(t *testing.T) {
	const backoff = 30 * time.Millisecond
	r := newPoolRig(t,
		backend.Options{Queue: backend.QueueOptions{Replicas: 1, QueueCap: 1}},
		PoolConfig{MaxConns: 4, QueueCap: 8, Retries: 3, Backoff: backoff})
	// Occupy the replica and fill the one queue slot directly.
	cl := r.be.Cluster()
	r.sim.ScheduleAt(0, func() {
		cl.Submit(50*time.Millisecond, func(time.Duration) {})
		cl.Submit(50*time.Millisecond, func(time.Duration) {})
	})
	var resp *httpsim.Response
	var doneAt time.Duration
	ep := r.client(0)
	req := poolQuery(0)
	issued := time.Millisecond
	r.sim.ScheduleAt(issued, func() {
		httpsim.Get(ep, "fe", FEPort, req, httpsim.ResponseCallbacks{
			OnDone: func(rr *httpsim.Response) { resp = rr; doneAt = r.sim.Now() },
		})
	})
	r.sim.Run()
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Status != 200 || len(resp.Body) <= len(r.static) {
		t.Fatalf("status %d, %d body bytes — retry did not recover the full page",
			resp.Status, len(resp.Body))
	}
	if r.fe.BERetries() == 0 {
		t.Fatal("no retries recorded — the 503 path never ran")
	}
	if r.fe.BERejectedFetches() != 0 {
		t.Errorf("%d fetches degraded despite successful retry", r.fe.BERejectedFetches())
	}
	// The response cannot predate first-attempt RTT + one backoff +
	// the 80 ms service time.
	if doneAt < issued+backoff+80*time.Millisecond {
		t.Errorf("response at %v — earlier than one backoff plus service time", doneAt)
	}
}

// TestRetriesExhaustedDegrades pins the give-up path: a BE that keeps
// rejecting (zero-replica queue is impossible, so a saturated capped
// queue held busy forever) forces the FE to exhaust its retries and
// degrade to static-only.
func TestRetriesExhaustedDegrades(t *testing.T) {
	const backoff = 10 * time.Millisecond
	r := newPoolRig(t,
		backend.Options{Queue: backend.QueueOptions{Replicas: 1, QueueCap: 1}},
		PoolConfig{MaxConns: 4, QueueCap: 8, Retries: 2, Backoff: backoff})
	// Hold the replica and queue slot well past all retry attempts.
	cl := r.be.Cluster()
	r.sim.ScheduleAt(0, func() {
		cl.Submit(10*time.Second, func(time.Duration) {})
		cl.Submit(10*time.Second, func(time.Duration) {})
	})
	var resp *httpsim.Response
	ep := r.client(0)
	req := poolQuery(0)
	r.sim.ScheduleAt(time.Millisecond, func() {
		httpsim.Get(ep, "fe", FEPort, req, httpsim.ResponseCallbacks{
			OnDone: func(rr *httpsim.Response) { resp = rr },
		})
	})
	r.sim.Run()
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Status != 200 || !bytes.Equal(resp.Body, r.static) {
		t.Fatalf("status %d, %d body bytes — want static-only degradation",
			resp.Status, len(resp.Body))
	}
	if r.fe.BERetries() != 2 {
		t.Errorf("retries = %d, want exactly Retries=2", r.fe.BERetries())
	}
	if r.fe.BERejectedFetches() != 1 {
		t.Errorf("degraded fetches = %d, want 1", r.fe.BERejectedFetches())
	}
}

// FuzzAdmissionControl drives a bounded FE pool plus a capped BE
// cluster with arbitrary burst patterns and checks the admission
// invariants: every offered query gets exactly one outcome
// (full / degraded / rejected), client-visible 503s match the FE's
// rejection counter, and neither the pool wait queue nor the cluster
// queue ever exceeds its cap.
func FuzzAdmissionControl(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{0, 0, 0, 0})
	f.Add(uint8(2), uint8(2), []byte{0, 1, 0, 3, 0, 1})
	f.Add(uint8(3), uint8(1), []byte{5, 5, 5})
	f.Add(uint8(1), uint8(4), []byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, poolSize, queueCap uint8, burst []byte) {
		maxConns := int(poolSize%4) + 1
		qcap := int(queueCap%4) + 1
		if len(burst) > 24 {
			burst = burst[:24]
		}
		if len(burst) == 0 {
			return
		}
		const beCap = 2
		r := newPoolRig(t,
			backend.Options{Queue: backend.QueueOptions{Replicas: 1, QueueCap: beCap}},
			PoolConfig{MaxConns: maxConns, QueueCap: qcap})
		var full, degraded, rejected int
		at := time.Duration(0)
		for i, b := range burst {
			at += time.Duration(b%8) * 10 * time.Millisecond
			ep := r.client(i)
			req := poolQuery(i)
			r.sim.ScheduleAt(at, func() {
				httpsim.Get(ep, "fe", FEPort, req, httpsim.ResponseCallbacks{
					OnDone: func(resp *httpsim.Response) {
						switch {
						case resp.Status == 503:
							rejected++
							if len(resp.Body) != 0 {
								t.Errorf("503 carried %d body bytes", len(resp.Body))
							}
						case resp.Status == 200 && len(resp.Body) > len(r.static):
							full++
						case resp.Status == 200:
							degraded++
						default:
							t.Errorf("unexpected status %d", resp.Status)
						}
					},
				})
			})
		}
		r.sim.Run()
		offered := len(burst)
		if full+degraded+rejected != offered {
			t.Fatalf("full %d + degraded %d + rejected %d != offered %d",
				full, degraded, rejected, offered)
		}
		if r.fe.Rejected() != rejected {
			t.Errorf("fe.Rejected() = %d, clients saw %d", r.fe.Rejected(), rejected)
		}
		if r.maxWaiters() > qcap {
			t.Errorf("pool wait queue reached %d, cap %d", r.maxWaiters(), qcap)
		}
		if got := r.be.Cluster().MaxQueueLen(); got > beCap {
			t.Errorf("cluster queue reached %d, cap %d", got, beCap)
		}
		if r.fe.beInflight != 0 {
			t.Errorf("pool not drained: inflight %d", r.fe.beInflight)
		}
		if degraded != r.fe.BERejectedFetches() {
			t.Errorf("degraded responses %d != FE degraded fetches %d",
				degraded, r.fe.BERejectedFetches())
		}
	})
}
