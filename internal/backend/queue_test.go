package backend

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"fesplit/internal/geo"
	"fesplit/internal/httpsim"
	"fesplit/internal/simnet"
	"fesplit/internal/tcpsim"
	"fesplit/internal/workload"
)

// newQueueRig builds a data center plus a client-endpoint factory: each
// client host gets its own 2 ms link and endpoint, so jobs arrive on
// independent connections.
func newQueueRig(t *testing.T, cost workload.CostModel, opts Options) (*simnet.Sim, *DataCenter, func(host string) *tcpsim.Endpoint) {
	t.Helper()
	sim := simnet.New(3)
	n := simnet.NewNetwork(sim)
	dc, err := New(n, "be", geo.Site{Name: "test-be"}, workload.DefaultContentSpec("svc"),
		cost, opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	return sim, dc, func(host string) *tcpsim.Endpoint {
		n.SetLink(simnet.HostID(host), "be", simnet.PathParams{Delay: 2 * time.Millisecond})
		return tcpsim.NewEndpoint(n, simnet.HostID(host), tcpsim.Config{})
	}
}

// TestClusterLindleySingleReplica drives a one-replica cluster with
// deterministic arrivals and service times and checks every reported
// wait against the hand-computed Lindley recurrence
// W(n) = max(0, W(n-1) + P - I): the M/D/1 virtual-time property the
// queue model is built on.
func TestClusterLindleySingleReplica(t *testing.T) {
	sim := simnet.New(1)
	c := NewCluster(sim, QueueOptions{Replicas: 1}, nil)
	const (
		interval = 50 * time.Millisecond
		proc     = 80 * time.Millisecond
		n        = 12
	)
	waits := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		i := i
		sim.ScheduleAt(time.Duration(i)*interval, func() {
			if !c.Submit(proc, func(w time.Duration) { waits[i] = w }) {
				t.Errorf("job %d rejected with no queue cap", i)
			}
		})
	}
	sim.Run()
	var want time.Duration
	for i := 0; i < n; i++ {
		if i > 0 {
			want += proc - interval // W(n) = max(0, W(n-1)+P-I); P > I here
		}
		if waits[i] != want {
			t.Errorf("job %d: wait %v, Lindley recurrence says %v", i, waits[i], want)
		}
	}
	if c.Rejected() != 0 || c.Waiting() != 0 || c.Busy() != 0 {
		t.Errorf("post-drain state: rejected=%d waiting=%d busy=%d",
			c.Rejected(), c.Waiting(), c.Busy())
	}
	if got := c.busyTime; got != time.Duration(n)*proc {
		t.Errorf("busy time %v, want %v", got, time.Duration(n)*proc)
	}
}

// TestClusterMD1ThroughBE repeats the Lindley check end to end: a
// single-replica data center with a CV=0 cost model (deterministic
// service time) receives GETs at a fixed spacing on independent
// connections, and every X-Queue-Wait response header must match the
// recurrence exactly.
func TestClusterMD1ThroughBE(t *testing.T) {
	cost := workload.CostModel{Base: 60 * time.Millisecond, PerTerm: 10 * time.Millisecond}
	sim, _, client := newQueueRig(t, cost, Options{Queue: QueueOptions{Replicas: 1}})
	const (
		interval = 40 * time.Millisecond
		jobs     = 8
	)
	q := workload.Query{ID: 9, Keywords: "alpha beta", Terms: 2, Rank: 999}
	proc := cost.Sample(q, 0, nil) // deterministic: CV <= 0 never draws
	if proc != 80*time.Millisecond {
		t.Fatalf("deterministic cost broken: %v", proc)
	}
	waits := make([]time.Duration, jobs)
	eps := make([]*tcpsim.Endpoint, jobs)
	for i := range eps {
		eps[i] = client(fmt.Sprintf("c%d", i))
	}
	for i := 0; i < jobs; i++ {
		i := i
		sim.ScheduleAt(time.Duration(i)*interval, func() {
			ep := eps[i]
			httpsim.Get(ep, "be", BEPort, httpsim.NewGet("svc", q.Path()),
				httpsim.ResponseCallbacks{OnDone: func(r *httpsim.Response) {
					if r.Status != 200 {
						t.Errorf("job %d: status %d", i, r.Status)
					}
					if v := r.Header[QueueWaitHeader]; v != "" {
						ns, err := strconv.ParseInt(v, 10, 64)
						if err != nil {
							t.Errorf("job %d: bad %s %q", i, QueueWaitHeader, v)
						}
						waits[i] = time.Duration(ns)
					}
				}})
		})
	}
	sim.Run()
	var want time.Duration
	for i := 0; i < jobs; i++ {
		if i > 0 {
			want += proc - interval
		}
		if waits[i] != want {
			t.Errorf("job %d: header wait %v, Lindley recurrence says %v", i, waits[i], want)
		}
	}
}

// TestLBPolicies checks replica selection: round-robin cycles in index
// order; least-outstanding picks the emptiest replica with lowest-index
// tie-breaking.
func TestLBPolicies(t *testing.T) {
	if RoundRobin.String() != "round-robin" || LeastOutstanding.String() != "least-outstanding" {
		t.Fatalf("policy names: %q, %q", RoundRobin, LeastOutstanding)
	}
	sim := simnet.New(1)
	rr := NewCluster(sim, QueueOptions{Replicas: 3, Policy: RoundRobin}, nil)
	got := []int{rr.pick(), rr.pick(), rr.pick(), rr.pick()}
	for i, want := range []int{0, 1, 2, 0} {
		if got[i] != want {
			t.Errorf("round-robin pick %d = %d, want %d", i, got[i], want)
		}
	}

	lo := NewCluster(sim, QueueOptions{Replicas: 3, Policy: LeastOutstanding}, nil)
	lo.replicas[0].outstanding = 2
	lo.replicas[1].outstanding = 1
	lo.replicas[2].outstanding = 1
	if i := lo.pick(); i != 1 {
		t.Errorf("least-outstanding picked %d, want 1 (lowest-index tie)", i)
	}
	lo.replicas[1].outstanding = 5
	if i := lo.pick(); i != 2 {
		t.Errorf("least-outstanding picked %d, want 2", i)
	}
}

// TestClusterRejectionAccounting floods a capped single replica and
// checks conservation: accepted + rejected == offered, the queue never
// exceeds its cap, and rejected jobs never call done.
func TestClusterRejectionAccounting(t *testing.T) {
	sim := simnet.New(1)
	const qcap = 3
	c := NewCluster(sim, QueueOptions{Replicas: 1, QueueCap: qcap}, nil)
	const jobs = 20
	var accepted, completed int
	for i := 0; i < jobs; i++ {
		sim.ScheduleAt(time.Duration(i)*time.Millisecond, func() {
			if c.Submit(100*time.Millisecond, func(time.Duration) { completed++ }) {
				accepted++
			}
		})
	}
	sim.Run()
	if accepted+c.Rejected() != jobs {
		t.Errorf("accepted %d + rejected %d != offered %d", accepted, c.Rejected(), jobs)
	}
	if completed != accepted {
		t.Errorf("completed %d != accepted %d", completed, accepted)
	}
	if c.Rejected() == 0 {
		t.Error("flood produced no rejections — cap is vacuous")
	}
	if c.MaxQueueLen() > qcap {
		t.Errorf("queue depth reached %d, cap %d", c.MaxQueueLen(), qcap)
	}
}

// TestClusterDeterministicAcrossRuns pins sim-time determinism: two
// identical runs produce identical wait sequences.
func TestClusterDeterministicAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		sim := simnet.New(7)
		c := NewCluster(sim, QueueOptions{Replicas: 2, Policy: LeastOutstanding}, nil)
		var waits []time.Duration
		for i := 0; i < 30; i++ {
			i := i
			sim.ScheduleAt(time.Duration(i*13)*time.Millisecond, func() {
				proc := time.Duration(40+(i*7)%60) * time.Millisecond
				c.Submit(proc, func(w time.Duration) { waits = append(waits, w) })
			})
		}
		sim.Run()
		return waits
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("wait %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestClusterUtilization checks the busy-time integral: one replica
// serving back-to-back work reads utilization 1 over the busy span.
func TestClusterUtilization(t *testing.T) {
	sim := simnet.New(1)
	c := NewCluster(sim, QueueOptions{Replicas: 2}, nil)
	sim.ScheduleAt(0, func() {
		c.Submit(100*time.Millisecond, func(time.Duration) {})
		c.Submit(100*time.Millisecond, func(time.Duration) {})
	})
	sim.Run()
	if got := c.Utilization(100 * time.Millisecond); got != 1 {
		t.Errorf("utilization = %v, want 1 (both replicas busy the whole span)", got)
	}
	if got := c.Utilization(200 * time.Millisecond); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
}
