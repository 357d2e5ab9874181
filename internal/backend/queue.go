// Replicated multi-server queue model for a back-end data center.
//
// The paper's inference framework treats Tproc as load-independent, but
// its Figure-9 discussion attributes Bing's higher fetch variability to
// "the load on servers at the data centers". This file makes that load
// mechanistic: a data center becomes a cluster of N replicas behind a
// load balancer, each replica a deterministic single-server FIFO in
// virtual time. A query's sojourn follows the Lindley recurrence —
// start = max(arrival, replica free time), wait = start − arrival —
// so Tproc inflates exactly as utilization approaches 1, queues blow up
// under traffic spikes, and a bounded queue rejects (503) once the
// cluster-wide backlog hits its cap. Everything runs in sim time on the
// deterministic event heap: equal seeds reproduce identical queueing.
//
// The model follows the replicated-cluster capacity analysis of
// "Capacity Planning for Vertical Search Engines" (see PAPERS.md and
// docs/OPERATING.md §3); ROADMAP item 2. With zero replicas the cluster is
// unbounded: every query starts at once. Both server tiers serve
// through a Cluster, and both sample their service times under one Load.
package backend

import (
	"time"

	"fesplit/internal/simnet"
	"fesplit/internal/stats"
)

// Load is the slowly varying server load a service time is sampled
// under: an AR(1) process (phi 0.9, sigma 0.3) that advances lazily, one
// step per 500 ms of sim time, drawing from the owner's generator.
type Load struct {
	ar   stats.AR1
	last time.Duration
}

// NewLoad returns the load process at rest.
func NewLoad() Load { return Load{ar: stats.AR1{Phi: 0.9, Sigma: 0.3}} }

// At advances the process to now and returns its value clamped to
// [-1, 1].
func (l *Load) At(now time.Duration, rng stats.Rand) float64 {
	const tick = 500 * time.Millisecond
	for l.last+tick <= now {
		l.last += tick
		l.ar.Next(rng)
	}
	return max(-1, min(1, l.ar.Value()))
}

// LBPolicy selects the replica a new query is dispatched to.
type LBPolicy uint8

const (
	// RoundRobin cycles through replicas in index order.
	RoundRobin LBPolicy = iota
	// LeastOutstanding dispatches to the replica with the fewest
	// assigned-but-unfinished queries (lowest index on ties) — the
	// join-the-shortest-queue policy real BE load balancers approximate.
	LeastOutstanding
)

// String returns the policy's stable label.
func (p LBPolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastOutstanding:
		return "least-outstanding"
	}
	return "unknown"
}

// QueueOptions configures a server's queue. The zero value is the
// unbounded queue: every query is served at once for its sampled time.
type QueueOptions struct {
	// Replicas is the number of identical servers in the cluster. Each
	// query occupies exactly one replica for its sampled service time.
	// 0 = unbounded.
	Replicas int
	// QueueCap bounds the cluster-wide backlog of dispatched-but-not-
	// started queries. A query arriving with the backlog at the cap is
	// rejected with a 503. 0 = unbounded.
	QueueCap int
	// Policy is the dispatch policy (default RoundRobin).
	Policy LBPolicy
}

// replica is one server of the cluster: a deterministic FIFO in virtual
// time. freeAt is when its last assigned query finishes; outstanding
// counts assigned-but-unfinished queries (the LeastOutstanding signal).
type replica struct {
	freeAt      time.Duration
	outstanding int
}

// Cluster is the replicated multi-server queue of one server.
// Dispatch happens at arrival (queries never migrate between replicas),
// which keeps the model a pure function of the arrival/service sequence:
// per-query sojourn obeys the Lindley recurrence on its replica.
type Cluster struct {
	sim      *simnet.Sim
	replicas []replica
	policy   LBPolicy
	queueCap int
	rr       int

	waiting  int // dispatched, waiting for the replica to free up
	busy     int // in service across all replicas
	rejected int
	maxQueue int
	busyTime time.Duration // accumulated service time of finished queries

	free []*job // finished jobs, reused by the next Submit

	// onChange refreshes the owner's gauges after any state transition
	// (may be nil).
	onChange func()
}

// NewCluster builds a queue on sim; onChange, if non-nil, runs after
// every state transition.
func NewCluster(sim *simnet.Sim, opts QueueOptions, onChange func()) *Cluster {
	return &Cluster{
		sim:      sim,
		replicas: make([]replica, opts.Replicas),
		policy:   opts.Policy,
		queueCap: opts.QueueCap,
		onChange: onChange,
	}
}

// pick selects the replica for a new arrival.
func (c *Cluster) pick() int {
	if c.policy == LeastOutstanding {
		best := 0
		for i := 1; i < len(c.replicas); i++ {
			if c.replicas[i].outstanding < c.replicas[best].outstanding {
				best = i
			}
		}
		return best
	}
	i := c.rr % len(c.replicas)
	c.rr++
	return i
}

// Submit dispatches one query with the given service time. It returns
// false when the cluster-wide backlog is at its cap (the query is
// rejected and consumes nothing); otherwise done(wait) runs when service
// completes, with wait the time the query spent queued before starting.
//
// A query that starts immediately (an unbounded queue, or a free
// replica) schedules exactly one event, at now+proc, which is what makes
// an unloaded cluster byte-identical to an unbounded one.
func (c *Cluster) Submit(proc time.Duration, done func(wait time.Duration)) bool {
	if len(c.replicas) == 0 {
		c.busy++
		c.refresh()
		c.sim.Schedule(proc, c.newJob(-1, proc, 0, done).finishFn)
		return true
	}
	now := c.sim.Now()
	i := c.pick()
	r := &c.replicas[i]
	start := now
	if r.freeAt > start {
		if c.queueCap > 0 && c.waiting >= c.queueCap {
			c.rejected++
			c.refresh()
			return false
		}
		start = r.freeAt
	}
	wait := start - now
	r.freeAt = start + proc
	r.outstanding++
	j := c.newJob(i, proc, wait, done)
	if wait == 0 {
		c.busy++
		c.refresh()
		c.sim.Schedule(proc, j.finishFn)
		return true
	}
	c.waiting++
	if c.waiting > c.maxQueue {
		c.maxQueue = c.waiting
	}
	c.refresh()
	c.sim.Schedule(wait, j.startFn)
	c.sim.Schedule(wait+proc, j.finishFn)
	return true
}

// job is one submitted query's pending events, bound once and recycled
// through the cluster's free list, so a submission allocates nothing.
type job struct {
	c          *Cluster
	replica    int // -1: the unbounded cluster
	proc, wait time.Duration
	done       func(wait time.Duration)

	startFn, finishFn func()
}

func (c *Cluster) newJob(replica int, proc, wait time.Duration, done func(time.Duration)) *job {
	var j *job
	if n := len(c.free); n > 0 {
		j, c.free = c.free[n-1], c.free[:n-1]
	} else {
		j = &job{c: c}
		j.startFn, j.finishFn = j.start, j.finish
	}
	j.replica, j.proc, j.wait, j.done = replica, proc, wait, done
	return j
}

// start moves a queued query into service.
func (j *job) start() {
	c := j.c
	c.waiting--
	c.busy++
	c.refresh()
}

// finish ends service, frees the job and runs its done.
func (j *job) finish() {
	c, done, wait := j.c, j.done, j.wait
	c.busy--
	if j.replica >= 0 {
		c.busyTime += j.proc
		c.replicas[j.replica].outstanding--
	}
	j.done = nil
	c.free = append(c.free, j)
	c.refresh()
	done(wait)
}

func (c *Cluster) refresh() {
	if c.onChange != nil {
		c.onChange()
	}
}

// Replicas returns the cluster size (0 = unbounded).
func (c *Cluster) Replicas() int { return len(c.replicas) }

// Waiting returns the current dispatched-but-not-started backlog.
func (c *Cluster) Waiting() int { return c.waiting }

// Busy returns the number of queries currently in service.
func (c *Cluster) Busy() int { return c.busy }

// Rejected returns the number of queries refused at the queue cap.
func (c *Cluster) Rejected() int { return c.rejected }

// MaxQueueLen returns the deepest backlog observed.
func (c *Cluster) MaxQueueLen() int { return c.maxQueue }

// Utilization returns the cluster's average utilization over an
// elapsed sim-time window: completed service time divided by total
// replica capacity.
func (c *Cluster) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 || len(c.replicas) == 0 {
		return 0
	}
	return float64(c.busyTime) / (float64(elapsed) * float64(len(c.replicas)))
}
