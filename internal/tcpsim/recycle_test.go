package tcpsim

import (
	"testing"
	"time"

	"fesplit/internal/simnet"
)

// churnScenario runs k sequential request/response conversations from
// one client to its servers in turn (one, or two when twoServers is
// set, so a recycled object dials a host its last life did not) — the
// fleet campaign's connection-churn shape — and returns the full tap
// transcript. spacing is the idle gap between a conversation's close
// and the next dial: long gaps let pending RTO check events drain so
// the free list is actually exercised; zero gaps keep retirements
// pending, exercising the deferred-drain path.
type churnScenario struct {
	seed       int64
	k          int
	size       int
	loss       float64
	spacing    time.Duration
	twoServers bool
}

func (s churnScenario) run(t *testing.T, recycle bool) (*transcript, *Endpoint) {
	tr, client, _ := s.runBoth(t, recycle)
	return tr, client
}

// runBoth is run that also returns how many distinct connection
// objects the servers accepted the k conversations on.
func (s churnScenario) runBoth(t *testing.T, recycle bool) (*transcript, *Endpoint, int) {
	t.Helper()
	sim := simnet.New(s.seed)
	n := simnet.NewNetwork(sim)
	servers := []simnet.HostID{"s"}
	if s.twoServers {
		servers = append(servers, "t")
	}
	cfg := Config{RecycleConns: recycle}
	client := NewEndpoint(n, "c", cfg)
	tr := &transcript{}
	client.Tap = tr.tap("c")

	payload := make([]byte, s.size)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	accepted := make(map[*Conn]bool)
	for _, host := range servers {
		n.SetLink("c", host, simnet.PathParams{Delay: 8 * time.Millisecond, LossRate: s.loss})
		server := NewEndpoint(n, host, cfg)
		server.Tap = tr.tap(string(host))
		if _, err := server.Listen(80, func(c *Conn) {
			accepted[c] = true
			c.Send(payload)
			c.Close()
		}); err != nil {
			t.Fatal(err)
		}
	}
	var next func(i int)
	next = func(i int) {
		if i >= s.k {
			return
		}
		c := client.Dial(servers[i%len(servers)], 80)
		c.OnData = func(b []byte) { tr.gotLen += len(b) }
		c.OnClose = func() {
			c.Close()
			if s.spacing > 0 {
				sim.Schedule(s.spacing, func() { next(i + 1) })
			} else {
				next(i + 1)
			}
		}
	}
	sim.ScheduleAt(0, func() { next(0) })
	sim.Run()
	tr.finalAt = sim.Now()
	return tr, client, len(accepted)
}

// TestRecycleDifferentialEquivalence: connection recycling must be
// invisible to protocol behaviour, on the dialing side and on the
// accepting side alike. Every churn scenario — clean and lossy, drained
// and back-to-back — must produce a bit-identical tap transcript with
// recycling on and off, and where the gaps let timers drain, the server
// must actually accept later conversations on recycled objects.
func TestRecycleDifferentialEquivalence(t *testing.T) {
	scenarios := []churnScenario{
		{seed: 1, k: 40, size: 20 << 10, spacing: 3 * time.Second},
		{seed: 2, k: 40, size: 20 << 10, spacing: 0},
		{seed: 3, k: 60, size: 8 << 10, loss: 0.05, spacing: 2 * time.Second},
		{seed: 4, k: 30, size: 64 << 10, loss: 0.02, spacing: 0},
		{seed: 5, k: 40, size: 8 << 10, loss: 0.02, spacing: 2 * time.Second, twoServers: true},
	}
	for _, s := range scenarios {
		on, _, onObjs := s.runBoth(t, true)
		off, _, offObjs := s.runBoth(t, false)
		if d := on.diff(off); d != "" {
			t.Fatalf("scenario %+v diverged with recycling on: %s", s, d)
		}
		if offObjs != s.k || s.spacing > 0 && onObjs >= s.k {
			t.Fatalf("scenario %+v: the server accepted %d conversations on %d objects recycling, %d not",
				s, s.k, onObjs, offObjs)
		}
		if on.gotLen != s.k*s.size {
			t.Fatalf("scenario %+v incomplete: %d/%d bytes", s, on.gotLen, s.k*s.size)
		}
	}
}

// TestRecycleFreeListUsed proves the pool actually recycles: with long
// idle gaps between conversations every RTO check drains, so all but
// the live connection object should cycle through the free list.
func TestRecycleFreeListUsed(t *testing.T) {
	s := churnScenario{seed: 7, k: 30, size: 16 << 10, spacing: 5 * time.Second}
	_, client := s.run(t, true)
	if client.FreeConns() == 0 {
		t.Fatalf("free list never populated across %d conversations", s.k)
	}
	if got := client.OpenConns(); got != 0 {
		t.Fatalf("%d connections still open after churn", got)
	}
}

// TestRecycleOffNoFreeList pins the default: without RecycleConns the
// free list stays empty and closed objects are left to the GC.
func TestRecycleOffNoFreeList(t *testing.T) {
	s := churnScenario{seed: 7, k: 10, size: 16 << 10, spacing: 5 * time.Second}
	_, client := s.run(t, false)
	if client.FreeConns() != 0 {
		t.Fatalf("free list populated with recycling off")
	}
}
